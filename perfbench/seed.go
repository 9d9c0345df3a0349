package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
)

// derive maps the run's seed to the seed of one generated input. Every
// input — progen programs, the compiler pre-pass inputs, the arrival
// schedule, routine picks and the edit chain — is drawn from a seed
// derived here, so the same --seed always yields the same inputs and
// the library and daemon see only the generated images and bodies.
func derive(seed uint64, tag string, i int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(tag))
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	h.Write(b[:])
	x := h.Sum64()
	// splitmix64 finalizer: FNV alone leaves nearby inputs correlated.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func newRand(seed uint64, tag string, i int) *rand.Rand {
	return rand.New(rand.NewPCG(derive(seed, tag, i), derive(seed, tag+"/stream", i)))
}
