package main

// `spike dump`: inspect an SXE executable image — entry routine, data
// segment, the routine table with its jump tables, and optionally the
// full disassembly (-d) or one routine's (-r).

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/prog"
)

func dumpMain(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		disasm  = fs.Bool("d", false, "disassemble all code")
		routine = fs.String("r", "", "disassemble one routine")
	)
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	input := fs.Arg(0)
	p, data, err := readProgram(input, false)
	if err != nil {
		return err
	}

	tables := 0
	for _, r := range p.Routines {
		tables += len(r.Tables)
	}
	fmt.Fprintf(stdout, "%s: SXE image, %d bytes\n", input, len(data))
	fmt.Fprintf(stdout, "entry routine: %s (#%d)\n", p.Routines[p.Entry].Name, p.Entry)
	fmt.Fprintf(stdout, "data segment:  %d words (%d packed jump tables)\n", len(p.Data), tables)

	if *routine != "" {
		ri, ok := p.Index(*routine)
		if !ok {
			return fmt.Errorf("no routine named %q", *routine)
		}
		dumpRoutine(stdout, p, ri)
		return nil
	}

	fmt.Fprintf(stdout, "\n%-5s %-16s %6s %7s %6s %6s %5s %s\n",
		"#", "name", "instrs", "entries", "tables", "calls", "exits", "flags")
	totalInstr := 0
	for ri, r := range p.Routines {
		flags := ""
		if r.AddressTaken {
			flags = "addr-taken"
		}
		fmt.Fprintf(stdout, "%-5d %-16s %6d %7d %6d %6d %5d %s\n",
			ri, r.Name, len(r.Code), len(r.Entries), len(r.Tables),
			r.NumCalls(), r.NumExits(), flags)
		totalInstr += len(r.Code)
	}
	fmt.Fprintf(stdout, "total: %d routines, %d instructions\n", len(p.Routines), totalInstr)

	if *disasm {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, prog.Disassemble(p))
	}
	return nil
}

func dumpRoutine(w io.Writer, p *prog.Program, ri int) {
	r := p.Routines[ri]
	fmt.Fprintf(w, "\nroutine %s (#%d): %d instructions, entries %v\n",
		r.Name, ri, len(r.Code), r.Entries)
	for ti, t := range r.Tables {
		off := "?"
		if ti < len(r.TableOffsets) {
			off = fmt.Sprintf("data+%d", r.TableOffsets[ti])
		}
		fmt.Fprintf(w, "  table %d at %s: targets %v\n", ti, off, t)
	}
	for i := range r.Code {
		in := &r.Code[i]
		note := ""
		if in.Op == isa.OpJsr {
			note = "  ; " + p.Routines[in.Target].Name
		}
		fmt.Fprintf(w, "  %4d: %s%s\n", i, in.String(), note)
	}
}
