package regset

import (
	"testing"
	"testing/quick"
)

func TestRegClassification(t *testing.T) {
	for r := Reg(0); r < 32; r++ {
		if !r.IsInt() {
			t.Errorf("register %d should be integer", r)
		}
		if r.IsFloat() {
			t.Errorf("register %d should not be float", r)
		}
	}
	for r := Reg(32); r < 64; r++ {
		if r.IsInt() {
			t.Errorf("register %d should not be integer", r)
		}
		if !r.IsFloat() {
			t.Errorf("register %d should be float", r)
		}
	}
	if Reg(64).Valid() || Reg(200).Valid() {
		t.Error("out-of-range registers must be invalid")
	}
}

func TestRegStringRoundTrip(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		name := r.String()
		back, err := ParseReg(name)
		if err != nil {
			t.Fatalf("ParseReg(%q): %v", name, err)
		}
		if back != r {
			t.Errorf("round trip of %d via %q gave %d", r, name, back)
		}
	}
}

func TestRegStringNames(t *testing.T) {
	for r, want := range map[Reg]string{
		V0: "v0", T7: "t7", S5: "s5", FP: "fp", A0: "a0", T8: "t8", T11: "t11",
		RA: "ra", PV: "pv", AT: "at", GP: "gp", SP: "sp", Zero: "zero",
		F0: "f0", F30: "f30", FZero: "fzero", 64: "r?64", 255: "r?255",
	} {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(r), got, want)
		}
	}
}

func TestParseRegRawSpellings(t *testing.T) {
	cases := map[string]Reg{
		"r0": R0, "r15": R15, "r26": R26, "r31": Zero,
		"f0": F0, "f31": FZero,
		"t0": T0, "t7": T7, "t8": T8, "t11": T11, "t12": PV,
		"a0": A0, "a5": A5, "s0": S0, "s5": S5,
		"v0": V0, "sp": SP, "gp": GP, "ra": RA, "fp": FP, "at": AT,
	}
	for name, want := range cases {
		got, err := ParseReg(name)
		if err != nil {
			t.Errorf("ParseReg(%q): %v", name, err)
			continue
		}
		if got != want {
			t.Errorf("ParseReg(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseRegErrors(t *testing.T) {
	for _, bad := range []string{"", "x9", "r32", "f32", "t13", "a6", "s6", "r-1", "r1x", "zilch"} {
		if _, err := ParseReg(bad); err == nil {
			t.Errorf("ParseReg(%q) should fail", bad)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := Of(R1, R2, F3)
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Contains(R1) || !s.Contains(R2) || !s.Contains(F3) {
		t.Error("missing members")
	}
	if s.Contains(R3) {
		t.Error("spurious member")
	}
	s = s.Remove(R2)
	if s.Contains(R2) || s.Len() != 2 {
		t.Error("Remove failed")
	}
	s = s.Remove(R2) // removing twice is a no-op
	if s.Len() != 2 {
		t.Error("double Remove changed the set")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(R0, R1, R2)
	b := Of(R2, R3)
	if got := a.Union(b); got != Of(R0, R1, R2, R3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != Of(R2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != Of(R0, R1) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.SymmetricDiff(b); got != Of(R0, R1, R3) {
		t.Errorf("SymmetricDiff = %v", got)
	}
	if !Of(R2).SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	if !a.Intersects(b) || a.Intersects(Of(F0)) {
		t.Error("Intersects wrong")
	}
}

func TestRange(t *testing.T) {
	if got := Range(A0, A5); got != Of(R16, R17, R18, R19, R20, R21) {
		t.Errorf("Range(a0,a5) = %v", got)
	}
	if got := Range(R0, Reg(63)); got != All {
		t.Errorf("full Range = %v, want All", got)
	}
	if got := Range(R5, R3); got != Empty {
		t.Errorf("inverted Range = %v, want empty", got)
	}
	if got := Range(R3, R3); got != Of(R3) {
		t.Errorf("singleton Range = %v", got)
	}
}

func TestRegsOrderedAndForEach(t *testing.T) {
	s := Of(F31, R0, R17, F2)
	regs := s.Regs()
	want := []Reg{R0, R17, F2, F31}
	if len(regs) != len(want) {
		t.Fatalf("Regs len = %d", len(regs))
	}
	for i := range want {
		if regs[i] != want[i] {
			t.Errorf("Regs[%d] = %v, want %v", i, regs[i], want[i])
		}
	}
	var visited []Reg
	s.ForEach(func(r Reg) { visited = append(visited, r) })
	for i := range want {
		if visited[i] != want[i] {
			t.Errorf("ForEach order[%d] = %v, want %v", i, visited[i], want[i])
		}
	}
}

func TestPick(t *testing.T) {
	if got := Of(R5, R9).Pick(); got != R5 {
		t.Errorf("Pick = %v, want r5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Pick on empty set should panic")
		}
	}()
	Empty.Pick()
}

func TestSetStringRoundTrip(t *testing.T) {
	for _, s := range []Set{Empty, Of(R0), Of(R1, R2, R3), Of(F0, F31, RA, SP), All} {
		text := s.String()
		back, err := ParseSet(text)
		if err != nil {
			t.Fatalf("ParseSet(%q): %v", text, err)
		}
		if back != s {
			t.Errorf("round trip of %v via %q gave %v", s, text, back)
		}
	}
	if got, want := Of(V0, T10, SP, FZero).String(), "{v0, t10, sp, fzero}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, err := ParseSet("∅"); err != nil || got != Empty {
		t.Errorf("ParseSet(∅) = %v, %v", got, err)
	}
}

// TestSetAppendTo holds String and AppendTo to one text, and sizes
// String's stack buffer: the full set's text must fit it exactly.
func TestSetAppendTo(t *testing.T) {
	for _, s := range []Set{Empty, Of(R0), Of(V0, T10, SP, FZero), All} {
		if got := string(s.AppendTo([]byte("x="))); got != "x="+s.String() {
			t.Errorf("AppendTo(%v) = %q, want %q", s, got, "x="+s.String())
		}
	}
	if n := len(All.String()); n != maxSetText {
		t.Errorf("len(All.String()) = %d, maxSetText = %d", n, maxSetText)
	}
}

func TestParseSetErrors(t *testing.T) {
	for _, bad := range []string{"v0", "{v0", "v0}", "{v0; t1}", "{nope}"} {
		if _, err := ParseSet(bad); err == nil {
			t.Errorf("ParseSet(%q) should fail", bad)
		}
	}
}

// Property: set algebra obeys the usual boolean-lattice laws.
func TestQuickLatticeLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(func(a, b, c Set) bool {
		if a.Union(b) != b.Union(a) || a.Intersect(b) != b.Intersect(a) {
			return false
		}
		if a.Union(b.Union(c)) != a.Union(b).Union(c) {
			return false
		}
		if a.Intersect(b.Union(c)) != a.Intersect(b).Union(a.Intersect(c)) {
			return false
		}
		if a.Minus(b) != a.Intersect(All.Minus(b)) {
			return false
		}
		return a.Minus(b).Union(a.Intersect(b)) == a
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Len is consistent with membership, and Regs enumerates exactly
// the members.
func TestQuickLenAndRegs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	if err := quick.Check(func(s Set) bool {
		regs := s.Regs()
		if len(regs) != s.Len() {
			return false
		}
		rebuilt := Of(regs...)
		return rebuilt == s
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Property: String/ParseSet round-trips arbitrary sets.
func TestQuickStringRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func(s Set) bool {
		back, err := ParseSet(s.String())
		return err == nil && back == s
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestSubsetMonotonicity(t *testing.T) {
	if err := quick.Check(func(a, b Set) bool {
		u := a.Union(b)
		return a.SubsetOf(u) && b.SubsetOf(u) && u.Intersect(a) == a
	}, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetOps(b *testing.B) {
	x := Of(R0, R5, R17, F2, F30)
	y := Range(A0, A5)
	var sink Set
	for i := 0; i < b.N; i++ {
		sink = x.Union(y).Minus(Of(R5)).Intersect(All)
	}
	_ = sink
}

// BenchmarkSetString renders the sets a summary document carries: an
// empty set, a call's argument and return registers, a kill set of
// every caller-saved register, and the full set.
func BenchmarkSetString(b *testing.B) {
	sets := []Set{Empty, Of(A0, A1, V0), Range(T0, T7).Union(Range(A0, T11)).Union(Of(V0, RA, PV, AT)), All}
	b.ReportAllocs()
	var sink string
	for i := 0; i < b.N; i++ {
		for _, s := range sets {
			sink = s.String()
		}
	}
	_ = sink
}
