package prog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/regset"
)

// Assemble parses the textual assembly language into a Program. The
// syntax, line oriented with ";" comments:
//
//	.start main            ; optional: names the entry routine
//	.routine main          ; begins a routine
//	.entry L2              ; optional extra entrance at a label
//	.table T0 = L1, L2, L3 ; jump table for a multiway branch
//	L0:                    ; label
//	  lda   a0, 5(zero)    ; dest, imm(base)
//	  add   t0, a0, a1     ; dest, src1, src2
//	  mov   t1, t0
//	  ld    t2, 8(sp)
//	  st    t2, 8(sp)      ; value, imm(base)
//	  br    L0
//	  beq   t0, L0
//	  jmp   t0, T0         ; multiway branch through table T0
//	  jmp   t0, ?          ; indirect jump, unknown targets
//	  jsr   helper         ; direct call by routine name
//	  jsr   helper, 1      ; ... to the routine's entrance 1 (Entries order)
//	  jsri  pv             ; indirect call
//	  print v0
//	  ret
//	  halt
//
// The first .routine is the program entry unless .start overrides it.
func Assemble(src string) (*Program, error) {
	p := New()
	var (
		cur       *routineBuilder
		builders  []*routineBuilder
		startName string
	)
	flush := func() {
		if cur != nil {
			builders = append(builders, cur)
			cur = nil
		}
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return fmt.Errorf("asm: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, ".start"):
			name := strings.TrimSpace(strings.TrimPrefix(line, ".start"))
			if name == "" {
				return nil, errf(".start requires a routine name")
			}
			startName = name
		case strings.HasPrefix(line, ".routine"):
			flush()
			name := strings.TrimSpace(strings.TrimPrefix(line, ".routine"))
			if name == "" {
				return nil, errf(".routine requires a name")
			}
			cur = newRoutineBuilder(name)
		case cur == nil:
			return nil, errf("instruction outside of a .routine")
		case line == ".addrtaken":
			cur.addrTaken = true
		case strings.HasPrefix(line, ".entry"):
			label := strings.TrimSpace(strings.TrimPrefix(line, ".entry"))
			if label == "" {
				return nil, errf(".entry requires a label")
			}
			cur.entryLabels = append(cur.entryLabels, pending{label, lineNo + 1})
		case strings.HasPrefix(line, ".table"):
			if err := cur.parseTable(strings.TrimPrefix(line, ".table"), lineNo+1); err != nil {
				return nil, err
			}
		case strings.HasSuffix(line, ":"):
			label := strings.TrimSpace(strings.TrimSuffix(line, ":"))
			if label == "" {
				return nil, errf("empty label")
			}
			if _, dup := cur.labels[label]; dup {
				return nil, errf("duplicate label %q", label)
			}
			cur.labels[label] = len(cur.code)
		default:
			if err := cur.parseInstr(line, lineNo+1); err != nil {
				return nil, err
			}
		}
	}
	flush()
	if len(builders) == 0 {
		return nil, fmt.Errorf("asm: no routines")
	}
	for _, b := range builders {
		r, err := b.finish()
		if err != nil {
			return nil, err
		}
		if _, dup := p.Index(r.Name); dup {
			return nil, fmt.Errorf("asm: duplicate routine %q", r.Name)
		}
		p.Add(r)
	}
	// Resolve call targets by name.
	for _, b := range builders {
		ri := p.byName[b.name]
		r := p.Routines[ri]
		for _, c := range b.calls {
			ti, ok := p.Index(c.name)
			if !ok {
				return nil, fmt.Errorf("asm: line %d: unknown routine %q", c.line, c.name)
			}
			r.Code[c.instr].Target = ti
		}
	}
	if startName != "" {
		i, ok := p.Index(startName)
		if !ok {
			return nil, fmt.Errorf("asm: .start names unknown routine %q", startName)
		}
		p.Entry = i
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// AssembleRoutine parses the body of a single routine — the same
// line-oriented syntax Assemble accepts inside a .routine block
// (.addrtaken, .entry, .table, labels, instructions) — and resolves its
// call targets against p's symbol table (which includes the routine
// itself when patching an existing routine). The .routine and .start
// directives are not accepted: the routine's name arrives out of band,
// as it does in a patch request. The returned routine is not added to
// p and is not yet validated against it; callers substitute it and run
// Validate (or ValidateRoutine) on the result.
func AssembleRoutine(p *Program, name, src string) (*Routine, error) {
	b := newRoutineBuilder(name)
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return fmt.Errorf("asm: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, ".routine"), strings.HasPrefix(line, ".start"):
			return nil, errf("%s not allowed in a single-routine body", strings.Fields(line)[0])
		case line == ".addrtaken":
			b.addrTaken = true
		case strings.HasPrefix(line, ".entry"):
			label := strings.TrimSpace(strings.TrimPrefix(line, ".entry"))
			if label == "" {
				return nil, errf(".entry requires a label")
			}
			b.entryLabels = append(b.entryLabels, pending{label, lineNo + 1})
		case strings.HasPrefix(line, ".table"):
			if err := b.parseTable(strings.TrimPrefix(line, ".table"), lineNo+1); err != nil {
				return nil, err
			}
		case strings.HasSuffix(line, ":"):
			label := strings.TrimSpace(strings.TrimSuffix(line, ":"))
			if label == "" {
				return nil, errf("empty label")
			}
			if _, dup := b.labels[label]; dup {
				return nil, errf("duplicate label %q", label)
			}
			b.labels[label] = len(b.code)
		default:
			if err := b.parseInstr(line, lineNo+1); err != nil {
				return nil, err
			}
		}
	}
	r, err := b.finish()
	if err != nil {
		return nil, err
	}
	for _, c := range b.calls {
		ti, ok := p.Index(c.name)
		if !ok {
			return nil, fmt.Errorf("asm: line %d: unknown routine %q", c.line, c.name)
		}
		r.Code[c.instr].Target = ti
	}
	return r, nil
}

// MustAssemble is Assemble but panics on error; intended for tests and
// examples with constant sources.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

type pending struct {
	label string
	line  int
}

type callRef struct {
	instr int
	name  string
	line  int
}

type branchRef struct {
	instr int
	label string
	line  int
}

type tableRef struct {
	index  int
	labels []pending
}

type routineBuilder struct {
	name        string
	code        []isa.Instr
	labels      map[string]int
	tableNames  map[string]int
	tables      []tableRef
	branches    []branchRef
	calls       []callRef
	entryLabels []pending
	addrTaken   bool
}

func newRoutineBuilder(name string) *routineBuilder {
	return &routineBuilder{
		name:       name,
		labels:     make(map[string]int),
		tableNames: make(map[string]int),
	}
}

func (b *routineBuilder) parseTable(rest string, line int) error {
	parts := strings.SplitN(rest, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("asm: line %d: .table requires NAME = labels", line)
	}
	name := strings.TrimSpace(parts[0])
	if name == "" {
		return fmt.Errorf("asm: line %d: .table requires a name", line)
	}
	if _, dup := b.tableNames[name]; dup {
		return fmt.Errorf("asm: line %d: duplicate table %q", line, name)
	}
	var labels []pending
	for _, l := range strings.Split(parts[1], ",") {
		l = strings.TrimSpace(l)
		if l == "" {
			return fmt.Errorf("asm: line %d: empty label in table", line)
		}
		labels = append(labels, pending{l, line})
	}
	b.tableNames[name] = len(b.tables)
	b.tables = append(b.tables, tableRef{index: len(b.tables), labels: labels})
	return nil
}

func (b *routineBuilder) parseInstr(line string, lineNo int) error {
	errf := func(format string, args ...interface{}) error {
		return fmt.Errorf("asm: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	fields := strings.Fields(line)
	mnemonic := fields[0]
	op, ok := isa.OpcodeByName(mnemonic)
	if !ok {
		return errf("unknown mnemonic %q", mnemonic)
	}
	operands := parseOperands(strings.TrimSpace(strings.TrimPrefix(line, mnemonic)))
	in := isa.Instr{Op: op, Table: isa.UnknownTable}
	need := func(n int) error {
		if len(operands) != n {
			return errf("%s expects %d operands, got %d", mnemonic, n, len(operands))
		}
		return nil
	}
	reg := func(s string) (regset.Reg, error) {
		r, err := regset.ParseReg(s)
		if err != nil {
			return 0, errf("%v", err)
		}
		return r, nil
	}
	var err error
	switch op.Format() {
	case isa.FmtNone:
		if err = need(0); err != nil {
			return err
		}
	case isa.FmtDSS:
		if err = need(3); err != nil {
			return err
		}
		if in.Dest, err = reg(operands[0]); err != nil {
			return err
		}
		if in.Src1, err = reg(operands[1]); err != nil {
			return err
		}
		if in.Src2, err = reg(operands[2]); err != nil {
			return err
		}
	case isa.FmtDS:
		if err = need(2); err != nil {
			return err
		}
		if in.Dest, err = reg(operands[0]); err != nil {
			return err
		}
		if in.Src1, err = reg(operands[1]); err != nil {
			return err
		}
	case isa.FmtDSI, isa.FmtSSI:
		if err = need(2); err != nil {
			return err
		}
		var valReg regset.Reg
		if valReg, err = reg(operands[0]); err != nil {
			return err
		}
		imm, base, perr := parseMem(operands[1])
		if perr != nil {
			return errf("%v", perr)
		}
		baseReg, rerr := reg(base)
		if rerr != nil {
			return rerr
		}
		in.Imm = imm
		in.Src1 = baseReg
		if op.Format() == isa.FmtDSI {
			in.Dest = valReg
		} else {
			in.Src2 = valReg
		}
	case isa.FmtTarget:
		if err = need(1); err != nil {
			return err
		}
		b.branches = append(b.branches, branchRef{len(b.code), operands[0], lineNo})
	case isa.FmtSTarget:
		if err = need(2); err != nil {
			return err
		}
		if in.Src1, err = reg(operands[0]); err != nil {
			return err
		}
		b.branches = append(b.branches, branchRef{len(b.code), operands[1], lineNo})
	case isa.FmtJump:
		if err = need(2); err != nil {
			return err
		}
		if in.Src1, err = reg(operands[0]); err != nil {
			return err
		}
		if operands[1] == "?" {
			in.Table = isa.UnknownTable
		} else {
			ti, ok := b.tableNames[operands[1]]
			if !ok {
				return errf("unknown jump table %q", operands[1])
			}
			in.Table = ti
		}
	case isa.FmtCall:
		// An optional second operand selects the callee's entrance
		// (Instr.Imm, an index into its Entries); omitted, it is 0.
		if len(operands) == 2 {
			sel, perr := strconv.ParseInt(operands[1], 10, 64)
			if perr != nil || sel < 0 {
				return errf("bad entrance selector %q", operands[1])
			}
			in.Imm = sel
		} else if err = need(1); err != nil {
			return err
		}
		b.calls = append(b.calls, callRef{len(b.code), operands[0], lineNo})
	case isa.FmtCallInd, isa.FmtS:
		if err = need(1); err != nil {
			return err
		}
		if in.Src1, err = reg(operands[0]); err != nil {
			return err
		}
	case isa.FmtSets:
		return errf("pseudo-instruction %q cannot be assembled", mnemonic)
	}
	b.code = append(b.code, in)
	return nil
}

func parseOperands(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// parseMem parses "imm(base)" memory operands.
func parseMem(s string) (int64, string, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, "", fmt.Errorf("memory operand must be imm(base): %q", s)
	}
	immText := strings.TrimSpace(s[:open])
	if immText == "" {
		immText = "0"
	}
	imm, err := strconv.ParseInt(immText, 10, 64)
	if err != nil {
		return 0, "", fmt.Errorf("bad immediate %q", immText)
	}
	base := strings.TrimSpace(s[open+1 : len(s)-1])
	return imm, base, nil
}

func (b *routineBuilder) finish() (*Routine, error) {
	r := &Routine{Name: b.name, Code: b.code, AddressTaken: b.addrTaken}
	resolve := func(p pending) (int, error) {
		idx, ok := b.labels[p.label]
		if !ok {
			return 0, fmt.Errorf("asm: line %d: unknown label %q in routine %s", p.line, p.label, b.name)
		}
		return idx, nil
	}
	for _, br := range b.branches {
		idx, err := resolve(pending{br.label, br.line})
		if err != nil {
			return nil, err
		}
		r.Code[br.instr].Target = idx
	}
	for _, t := range b.tables {
		targets := make([]int, 0, len(t.labels))
		for _, l := range t.labels {
			idx, err := resolve(l)
			if err != nil {
				return nil, err
			}
			targets = append(targets, idx)
		}
		r.Tables = append(r.Tables, targets)
	}
	r.Entries = []int{0}
	for _, e := range b.entryLabels {
		idx, err := resolve(e)
		if err != nil {
			return nil, err
		}
		if idx != 0 {
			r.Entries = append(r.Entries, idx)
		}
	}
	sort.Ints(r.Entries)
	return r, nil
}

// Disassemble renders the program in the syntax accepted by Assemble.
// Programs containing pseudo-instructions (after call-summary
// substitution) disassemble for human reading but do not re-assemble.
func Disassemble(p *Program) string {
	var sb strings.Builder
	if p.Entry != 0 && p.Entry < len(p.Routines) {
		fmt.Fprintf(&sb, ".start %s\n\n", p.Routines[p.Entry].Name)
	}
	for _, r := range p.Routines {
		disasmRoutine(&sb, p, r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func disasmRoutine(sb *strings.Builder, p *Program, r *Routine) {
	fmt.Fprintf(sb, ".routine %s\n", r.Name)
	if r.AddressTaken {
		sb.WriteString(".addrtaken\n")
	}
	// Collect every instruction index that needs a label.
	needLabel := map[int]bool{}
	for i := range r.Code {
		in := &r.Code[i]
		if in.Op.IsBranch() && in.Op != isa.OpJmp {
			needLabel[in.Target] = true
		}
	}
	for _, t := range r.Tables {
		for _, tgt := range t {
			needLabel[tgt] = true
		}
	}
	for _, e := range r.Entries {
		if e != 0 {
			needLabel[e] = true
			fmt.Fprintf(sb, ".entry L%d\n", e)
		}
	}
	for ti, t := range r.Tables {
		fmt.Fprintf(sb, ".table T%d =", ti)
		for i, tgt := range t {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(sb, " L%d", tgt)
		}
		sb.WriteByte('\n')
	}
	for i := range r.Code {
		if needLabel[i] {
			fmt.Fprintf(sb, "L%d:\n", i)
		}
		in := &r.Code[i]
		sb.WriteString("  ")
		switch {
		case in.Op == isa.OpJsr:
			fmt.Fprintf(sb, "jsr %s", p.Routines[in.Target].Name)
			if in.Imm != 0 {
				fmt.Fprintf(sb, ", %d", in.Imm)
			}
		case in.Op == isa.OpJmp && in.Table != isa.UnknownTable:
			fmt.Fprintf(sb, "jmp %s, T%d", in.Src1, in.Table)
		case in.Op.IsBranch() && in.Op != isa.OpJmp:
			if in.Op.IsCondBranch() {
				fmt.Fprintf(sb, "%s %s, L%d", in.Op, in.Src1, in.Target)
			} else {
				fmt.Fprintf(sb, "%s L%d", in.Op, in.Target)
			}
		default:
			sb.WriteString(in.String())
		}
		sb.WriteByte('\n')
	}
}
