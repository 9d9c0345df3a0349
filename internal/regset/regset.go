// Package regset provides dense bit-set representations of Alpha machine
// registers.
//
// The Alpha architecture exposes 32 integer registers (R0–R31) and 32
// floating-point registers (F0–F31). Spike's interprocedural dataflow
// analysis manipulates sets of these registers constantly — every PSG node
// carries three sets, every PSG edge three more — so the representation must
// be compact and the set algebra must be branch-free. A Set packs all 64
// registers into a single uint64, giving O(1) union, intersection,
// difference and equality.
package regset

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Reg identifies a single machine register. Integer registers are
// R0 (value 0) through R31 (value 31); floating-point registers are
// F0 (value 32) through F31 (value 63).
type Reg uint8

// NumRegs is the total number of architectural registers.
const NumRegs = 64

// Integer register constants following the Alpha/NT software names.
const (
	// R0 is v0, the integer return-value register.
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// Floating-point register constants.
const (
	F0 Reg = iota + 32
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
	F16
	F17
	F18
	F19
	F20
	F21
	F22
	F23
	F24
	F25
	F26
	F27
	F28
	F29
	F30
	F31
)

// Aliases for the Alpha/NT software register names.
const (
	V0 = R0 // integer return value

	// Temporaries t0–t7 occupy R1–R8.
	T0 = R1
	T1 = R2
	T2 = R3
	T3 = R4
	T4 = R5
	T5 = R6
	T6 = R7
	T7 = R8

	// Callee-saved s0–s5 occupy R9–R14.
	S0 = R9
	S1 = R10
	S2 = R11
	S3 = R12
	S4 = R13
	S5 = R14

	FP = R15 // frame pointer (callee-saved)

	// Argument registers a0–a5 occupy R16–R21.
	A0 = R16
	A1 = R17
	A2 = R18
	A3 = R19
	A4 = R20
	A5 = R21

	// Temporaries t8–t11 occupy R22–R25.
	T8  = R22
	T9  = R23
	T10 = R24
	T11 = R25

	RA    = R26 // return address
	PV    = R27 // procedure value (t12)
	AT    = R28 // assembler temporary
	GP    = R29 // global pointer
	SP    = R30 // stack pointer
	Zero  = R31 // hardwired zero
	FZero = F31 // floating-point hardwired zero
)

// IsInt reports whether r is an integer register.
func (r Reg) IsInt() bool { return r < 32 }

// IsFloat reports whether r is a floating-point register.
func (r Reg) IsFloat() bool { return r >= 32 && r < NumRegs }

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// regNames holds the software name of every architectural register,
// indexed by Reg, so naming a register costs an index: a rendered
// analysis document names one per member of every set it carries.
var regNames = [NumRegs]string{
	"v0", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
	"t7", "s0", "s1", "s2", "s3", "s4", "s5", "fp",
	"a0", "a1", "a2", "a3", "a4", "a5", "t8", "t9",
	"t10", "t11", "ra", "pv", "at", "gp", "sp", "zero",
	"f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7",
	"f8", "f9", "f10", "f11", "f12", "f13", "f14", "f15",
	"f16", "f17", "f18", "f19", "f20", "f21", "f22", "f23",
	"f24", "f25", "f26", "f27", "f28", "f29", "f30", "fzero",
}

// String returns the software name of the register (e.g. "v0", "t3",
// "f12"), or "r?N" for a value that names no register.
func (r Reg) String() string {
	if r.Valid() {
		return regNames[r]
	}
	return "r?" + strconv.Itoa(int(r))
}

// ParseReg converts a software register name (as produced by Reg.String,
// plus the raw "rN"/"fN" spellings) back to a Reg.
func ParseReg(name string) (Reg, error) {
	switch name {
	case "zero":
		return Zero, nil
	case "fzero":
		return FZero, nil
	case "v0":
		return V0, nil
	case "fp":
		return FP, nil
	case "ra":
		return RA, nil
	case "pv":
		return PV, nil
	case "at":
		return AT, nil
	case "gp":
		return GP, nil
	case "sp":
		return SP, nil
	}
	if len(name) >= 2 {
		var base Reg
		var off, max int
		var ok bool
		switch name[0] {
		case 't':
			if n, err := parseUint(name[1:]); err == nil {
				if n <= 7 {
					return T0 + Reg(n), nil
				}
				if n <= 11 {
					return T8 + Reg(n-8), nil
				}
				if n == 12 {
					return PV, nil
				}
			}
		case 's':
			base, max = S0, 5
			off, ok = parseOK(name[1:])
			if ok && off <= max {
				return base + Reg(off), nil
			}
		case 'a':
			base, max = A0, 5
			off, ok = parseOK(name[1:])
			if ok && off <= max {
				return base + Reg(off), nil
			}
		case 'r':
			off, ok = parseOK(name[1:])
			if ok && off <= 31 {
				return Reg(off), nil
			}
		case 'f':
			off, ok = parseOK(name[1:])
			if ok && off <= 31 {
				return Reg(off) + 32, nil
			}
		}
	}
	return 0, fmt.Errorf("regset: unknown register name %q", name)
}

func parseUint(s string) (int, error) {
	if s == "" {
		return 0, fmt.Errorf("empty")
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("not a number")
		}
		n = n*10 + int(c-'0')
		if n > NumRegs {
			return 0, fmt.Errorf("out of range")
		}
	}
	return n, nil
}

func parseOK(s string) (int, bool) {
	n, err := parseUint(s)
	return n, err == nil
}

// Set is a set of machine registers, represented as a 64-bit vector.
// The zero value is the empty set. Set is a value type: all operations
// return new sets and never mutate their operands, which makes dataflow
// transfer functions trivially safe to share across goroutines.
type Set uint64

// Empty is the empty register set.
const Empty Set = 0

// All is the set of every architectural register.
const All Set = ^Set(0)

// Of constructs a set containing exactly the given registers.
func Of(regs ...Reg) Set {
	var s Set
	for _, r := range regs {
		s = s.Add(r)
	}
	return s
}

// Range returns the set of registers from lo to hi inclusive.
func Range(lo, hi Reg) Set {
	if hi < lo || !lo.Valid() || !hi.Valid() {
		return Empty
	}
	n := uint(hi - lo + 1)
	if n == 64 {
		return All
	}
	return Set((uint64(1)<<n - 1) << uint(lo))
}

// Add returns s with register r added.
func (s Set) Add(r Reg) Set {
	if !r.Valid() {
		return s
	}
	return s | 1<<uint(r)
}

// Remove returns s with register r removed.
func (s Set) Remove(r Reg) Set {
	if !r.Valid() {
		return s
	}
	return s &^ (1 << uint(r))
}

// Contains reports whether r is in s.
func (s Set) Contains(r Reg) bool {
	return r.Valid() && s&(1<<uint(r)) != 0
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s − t, the registers in s that are not in t.
func (s Set) Minus(t Set) Set { return s &^ t }

// SymmetricDiff returns the registers in exactly one of s and t.
func (s Set) SymmetricDiff(t Set) Set { return s ^ t }

// IsEmpty reports whether s contains no registers.
func (s Set) IsEmpty() bool { return s == 0 }

// Len returns the number of registers in s.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports whether every register in s is also in t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Intersects reports whether s and t share at least one register.
func (s Set) Intersects(t Set) bool { return s&t != 0 }

// Regs returns the registers in s in ascending order.
func (s Set) Regs() []Reg {
	out := make([]Reg, 0, s.Len())
	for v := uint64(s); v != 0; {
		r := Reg(bits.TrailingZeros64(v))
		out = append(out, r)
		v &= v - 1
	}
	return out
}

// ForEach calls fn for each register in s in ascending order.
func (s Set) ForEach(fn func(Reg)) {
	for v := uint64(s); v != 0; v &= v - 1 {
		fn(Reg(bits.TrailingZeros64(v)))
	}
}

// Pick returns the lowest-numbered register in s. It panics if s is empty.
func (s Set) Pick() Reg {
	if s == 0 {
		panic("regset: Pick on empty set")
	}
	return Reg(bits.TrailingZeros64(uint64(s)))
}

// maxSetText bounds the length of a set's text: every register's name,
// a ", " between two names, and the braces.
const maxSetText = 284

// String renders the set in the paper's notation, e.g. "{v0, t1, f4}".
func (s Set) String() string {
	if s == 0 {
		return "{}"
	}
	var buf [maxSetText]byte
	return string(s.AppendTo(buf[:0]))
}

// AppendTo appends the set in the paper's notation, as String renders
// it, to dst and returns the extended buffer.
func (s Set) AppendTo(dst []byte) []byte {
	dst = append(dst, '{')
	for v := uint64(s); v != 0; v &= v - 1 {
		if v != uint64(s) {
			dst = append(dst, ", "...)
		}
		dst = append(dst, regNames[bits.TrailingZeros64(v)]...)
	}
	return append(dst, '}')
}

// ParseSet parses the notation produced by Set.String. The empty set may be
// written "{}" or "∅".
func ParseSet(text string) (Set, error) {
	text = strings.TrimSpace(text)
	if text == "∅" || text == "{}" {
		return Empty, nil
	}
	if !strings.HasPrefix(text, "{") || !strings.HasSuffix(text, "}") {
		return Empty, fmt.Errorf("regset: set must be brace-delimited: %q", text)
	}
	inner := strings.TrimSpace(text[1 : len(text)-1])
	if inner == "" {
		return Empty, nil
	}
	var s Set
	for _, part := range strings.Split(inner, ",") {
		r, err := ParseReg(strings.TrimSpace(part))
		if err != nil {
			return Empty, err
		}
		s = s.Add(r)
	}
	return s, nil
}
