package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/regset"
)

// Magic identifies snapshot images; the trailing digit is the format
// version. A format change (new or dropped column, different width)
// bumps it, and Decode rejects other versions rather than misreading
// them.
var Magic = [4]byte{'P', 'S', 'S', '2'}

// ErrBadMagic is returned when the input does not start with the
// snapshot magic number (wrong file, or a future format version).
var ErrBadMagic = errors.New("snapshot: bad magic")

// ErrChecksum is returned when the image fails checksum verification.
var ErrChecksum = errors.New("snapshot: checksum mismatch")

// Encode renders the snapshot in the versioned binary format. Encoding
// is canonical: equal snapshots produce identical bytes, and
// Decode(Encode(s)) reproduces s exactly.
func (s *Snapshot) Encode() []byte {
	st := s.State
	w := &writer{buf: make([]byte, 0, s.encodedSizeHint())}
	w.raw(Magic[:])
	w.str(s.ProgramID)
	w.str(st.OptionKey)

	w.uvarint(uint64(len(st.BodyHashes)))
	for _, h := range st.BodyHashes {
		w.u64(h)
	}
	for _, v := range st.SavedRestored {
		w.u64(uint64(v))
	}
	for _, b := range st.FrameClean {
		w.bool(b)
	}
	for _, b := range st.FrameHasIndirect {
		w.bool(b)
	}
	for _, v := range st.FrameLocalSaved {
		w.u64(uint64(v))
	}

	w.uvarint(uint64(len(st.Components)))
	for c := range st.Components {
		w.uvarint(uint64(len(st.Components[c])))
		for _, ri := range st.Components[c] {
			w.uvarint(uint64(ri))
		}
		w.uvarint(uint64(st.CalleeWave[c]))
		w.uvarint(uint64(st.CallerWave[c]))
	}

	w.uvarint(uint64(len(st.NodeKind)))
	w.raw(st.NodeKind)
	w.i32s(st.NodeRoutine)
	w.i32s(st.NodeBlock)
	w.i32s(st.NodeEntryIdx)
	w.i32s(st.NodeCallTarget)
	w.i32s(st.NodeCallEntry)
	w.bools(st.NodeUnknown)
	w.sets(st.NodeMayUse)
	w.sets(st.NodeMayDef)
	w.sets(st.NodeMustDef)
	w.sets(st.NodePhase1Use)

	w.uvarint(uint64(len(st.EdgeKind)))
	w.raw(st.EdgeKind)
	w.i32s(st.EdgeSrc)
	w.i32s(st.EdgeDst)
	w.sets(st.EdgeMayUse)
	w.sets(st.EdgeMayDef)
	w.sets(st.EdgeMustDef)

	h := fnv.New32a()
	h.Write(w.buf)
	w.u32(h.Sum32())
	return w.buf
}

func (s *Snapshot) encodedSizeHint() int {
	st := s.State
	return 64 + len(s.ProgramID) + len(st.OptionKey) +
		len(st.BodyHashes)*34 +
		len(st.NodeKind)*54 + len(st.EdgeKind)*33
}

// Decode parses a snapshot image, verifying the checksum and every
// count against the remaining input so corrupt or truncated bytes fail
// with an error rather than a panic or an absurd allocation. The
// structural validity of the state itself (index ranges, slab order) is
// checked by Restore/core.Rehydrate, not here.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4 {
		return nil, fmt.Errorf("snapshot: truncated image (%d bytes)", len(data))
	}
	for i := range Magic {
		if data[i] != Magic[i] {
			return nil, ErrBadMagic
		}
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	h := fnv.New32a()
	h.Write(body)
	if h.Sum32() != binary.LittleEndian.Uint32(sum) {
		return nil, ErrChecksum
	}

	r := &reader{data: body, pos: len(Magic)}
	s := &Snapshot{State: &core.SavedState{}}
	st := s.State
	s.ProgramID = r.str()
	st.OptionKey = r.str()

	nR := r.count(8) // each routine needs ≥8 bytes of hash alone
	st.BodyHashes = r.u64s(nR)
	st.SavedRestored = r.sets(nR)
	st.FrameClean = r.bools(nR)
	st.FrameHasIndirect = r.bools(nR)
	st.FrameLocalSaved = r.sets(nR)

	nC := r.count(3) // members count + two waves, ≥1 byte each
	st.Components = make([][]int32, nC)
	st.CalleeWave = make([]int32, nC)
	st.CallerWave = make([]int32, nC)
	for c := 0; c < nC && r.err == nil; c++ {
		nM := r.count(1)
		col := make([]int32, nM)
		for i := 0; i < nM; i++ {
			col[i] = r.i32var()
		}
		st.Components[c] = col
		st.CalleeWave[c] = r.i32var()
		st.CallerWave[c] = r.i32var()
	}

	nN := r.count(54) // bytes per node across all columns
	st.NodeKind = r.raw(nN)
	st.NodeRoutine = r.i32s(nN)
	st.NodeBlock = r.i32s(nN)
	st.NodeEntryIdx = r.i32s(nN)
	st.NodeCallTarget = r.i32s(nN)
	st.NodeCallEntry = r.i32s(nN)
	st.NodeUnknown = r.bools(nN)
	st.NodeMayUse = r.sets(nN)
	st.NodeMayDef = r.sets(nN)
	st.NodeMustDef = r.sets(nN)
	st.NodePhase1Use = r.sets(nN)

	nE := r.count(33) // bytes per edge across all columns
	st.EdgeKind = r.raw(nE)
	st.EdgeSrc = r.i32s(nE)
	st.EdgeDst = r.i32s(nE)
	st.EdgeMayUse = r.sets(nE)
	st.EdgeMayDef = r.sets(nE)
	st.EdgeMustDef = r.sets(nE)

	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(body) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes", len(body)-r.pos)
	}
	return s, nil
}

// writer appends the primitive encodings.
type writer struct{ buf []byte }

func (w *writer) raw(b []byte)     { w.buf = append(w.buf, b...) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) u32(v uint32)     { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)     { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i32(v int32)      { w.u32(uint32(v)) }
func (w *writer) str(s string)     { w.uvarint(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *writer) bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) i32s(vs []int32) {
	for _, v := range vs {
		w.i32(v)
	}
}

func (w *writer) sets(vs []regset.Set) {
	for _, v := range vs {
		w.u64(uint64(v))
	}
}

func (w *writer) bools(vs []bool) {
	for _, v := range vs {
		w.bool(v)
	}
}

// reader parses them back with a sticky error: after the first failure
// every accessor returns zero values and the error survives to the end.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.data) {
		r.fail("truncated at byte %d (want %d more)", r.pos, n)
		return nil
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad uvarint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// count reads an element count and bounds it by the bytes remaining:
// every element occupies at least elemSize encoded bytes, so a count
// that cannot fit is corruption, caught before any allocation.
func (r *reader) count(elemSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if max := uint64(len(r.data)-r.pos) / uint64(elemSize); v > max {
		r.fail("count %d at byte %d exceeds remaining input", v, r.pos)
		return 0
	}
	return int(v)
}

// int reads a uvarint that must fit in a non-negative int.
func (r *reader) int() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("value %d out of range", v)
		return 0
	}
	return int(v)
}

// i32var reads a uvarint that must fit in an int32.
func (r *reader) i32var() int32 { return int32(r.int()) }

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) str() string {
	n := r.count(1)
	return string(r.take(n))
}

func (r *reader) raw(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *reader) u64s(n int) []uint64 {
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return vs
}

func (r *reader) sets(n int) []regset.Set {
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	vs := make([]regset.Set, n)
	for i := range vs {
		vs[i] = regset.Set(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vs
}

func (r *reader) i32s(n int) []int32 {
	b := r.take(4 * n)
	if b == nil {
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return vs
}

func (r *reader) bools(n int) []bool {
	b := r.take(n)
	if b == nil {
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		switch b[i] {
		case 0:
		case 1:
			vs[i] = true
		default:
			r.fail("bad bool %d at byte %d", b[i], r.pos-n+i)
			return nil
		}
	}
	return vs
}
