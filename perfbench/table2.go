package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/prog"
	"repro/internal/progen"
	"repro/internal/regset"
	"repro/internal/snapshot"
	"repro/internal/sxe"
)

// The table2 phase is the paper's own experiment: a closed loop, one
// operation at a time, over all 16 Table 2 profiles, with three
// operation kinds — analyze (sxe.Decode + core.Analyze), restore
// (snapshot.Decode + Snapshot.Restore) and optimize (sxe.Decode +
// opt.OptimizeAnalyzed + sxe.Encode). It spans 1.6k to 1.1M
// instructions and the properties analysis cost depends on (routine
// count, call density, switch-in-loop, conditional loops, indirect
// calls). The serve and api layers do none of its work.

const table2Track = 1

// Every program is timed in several samples, one per pass over the
// suite, and its figure is the median of its samples; a window runs at
// least t2MinPasses passes. Within a sample the operation repeats until
// it has covered batchInstr instructions, so that even the smallest
// profile's sample spans several milliseconds and one scheduling stall
// cannot multiply it; the sample's time per operation is its total
// divided by the repetitions. The targets are about 10 ms of work at the
// rates each kind runs at on a 2.1 GHz Xeon.
const (
	t2MinPasses   = 3
	batchAnalyze  = 16_000
	batchRestore  = 40_000
	batchOptimize = 3_000
	batchArg      = "batch" // span argument: the sample's repetitions
)

// batchOf is how many times a sample repeats an operation on a program
// of instr instructions to cover target instructions.
func batchOf(instr, target int) int { return max(1, (target+instr-1)/instr) }

// t2input is one profile's set-up products.
type t2input struct {
	name     string
	img      []byte // SXE image at table2Scale
	instr    int
	snap     []byte // snapshot of its analysis, captured during set-up
	digest   [32]byte
	counts   t2counts
	optImg   []byte // §1 protocol input, pre-optimized by the compiler baseline
	optInstr int
}

type t2counts struct{ nodes, edges, iter1, iter2 int }

func countsOf(a *core.Analysis) t2counts {
	return t2counts{a.Stats.PSGNodes, a.Stats.PSGEdges, a.Stats.Phase1Iterations, a.Stats.Phase2Iterations}
}

// summaryDigest hashes every routine's five summary sets and exit
// blocks, so two analyses' summaries compare byte for byte.
func summaryDigest(a *core.Analysis) [32]byte {
	h := sha256.New()
	var buf []byte
	put := func(sets []regset.Set) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sets)))
		for _, s := range sets {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s))
		}
	}
	for i := range a.Summaries {
		s := &a.Summaries[i]
		buf = buf[:0]
		put(s.CallUsed)
		put(s.CallDefined)
		put(s.CallKilled)
		put(s.LiveAtEntry)
		put(s.LiveAtExit)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.ExitBlocks)))
		for _, b := range s.ExitBlocks {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(b))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.SavedRestored))
		h.Write(buf)
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func (r *run) table2Setup() ([]t2input, error) {
	ins := make([]t2input, len(progen.Profiles))
	for i, prof := range progen.Profiles {
		in := &ins[i]
		in.name = prof.Name
		p := progen.Generate(prof.Scale(r.cfg.table2Scale), progen.DefaultOptions(derive(r.cfg.seed, "table2", i)))
		img, err := sxe.Encode(p)
		if err != nil {
			return nil, fmt.Errorf("%s: encode: %w", prof.Name, err)
		}
		in.img, in.instr = img, p.NumInstructions()
		a, err := core.Analyze(p, core.WithConfig(core.DefaultConfig()))
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", prof.Name, err)
		}
		in.snap = snapshot.Capture(a, api.ProgramID(img)).Encode()
		in.digest, in.counts = summaryDigest(a), countsOf(a)

		raw := progen.Generate(prof.Scale(r.cfg.optScale), progen.PaperOptOptions(derive(r.cfg.seed, "opt", i)))
		pre, _, err := opt.Optimize(raw, opt.CompilerOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: compiler pre-pass: %w", prof.Name, err)
		}
		if in.optImg, err = sxe.Encode(pre); err != nil {
			return nil, fmt.Errorf("%s: encode: %w", prof.Name, err)
		}
		in.optInstr = pre.NumInstructions()
	}
	return ins, nil
}

func fingerprintT2(ins []t2input) string {
	h := sha256.New()
	for _, in := range ins {
		h.Write(in.img)
		h.Write(in.snap)
		h.Write(in.optImg)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// t2result is one optimize operation's output, kept for the checks.
type t2result struct {
	img []byte
	rep opt.Report
}

// t2stats accumulates one window. wall[k][i] and cpu[k][i] hold each
// sample's wall and process CPU time per operation of kind k (0
// analyze, 1 restore, 2 optimize) on program i, in ms; the memory,
// allocation and GC figures are per operation of every program, summed
// over passes.
type t2stats struct {
	passes                     int
	wall, cpu                  [3][][]float64
	ops                        [3]timing
	anaPeak, optPeak           float64
	out                        map[int]*t2result
	coreAlloc, optAlloc        float64 // bytes
	gcCycles                   float64
	snapBytes                  float64
	dirtyShare                 []float64
	nodes, edges, iter1, iter2 int // summed over passes
	window                     time.Duration
	// perPass[k] is pass k's time for one operation of each kind on
	// every program, in ms, for the record.
	perPass []float64
}

// passMs is one pass over the suite at the median wall times: one
// operation of each kind on every program.
func (st *t2stats) passMs() float64 {
	var s float64
	for _, kind := range st.wall {
		for _, times := range kind {
			s += medianOf(times)
		}
	}
	return s
}

func (r *run) table2() error {
	ins, err := timeSetup(r, "table2", r.table2Setup, fingerprintT2, func([]t2input) {})
	if err != nil {
		return err
	}
	checked := map[int]*t2exact{}
	var untracedPassMs float64
	return r.passes(func(traced bool) error {
		st := r.table2Window(ins, traced)
		r.table2Check(ins, st, checked)
		passMs := st.passMs()
		if !traced {
			untracedPassMs = passMs
			r.table2Metrics(ins, st, checked)
			return nil
		}
		r.table2Layers(st, checked)
		r.layers["trace.table2_overhead_pct"] = 100 * (passMs - untracedPassMs) / untracedPassMs
		return nil
	})
}

// table2Window runs whole passes over the suite until the phase's
// share of --seconds is used, and at least t2MinPasses. Each sample
// starts from settled memory, so its peak is its own program's.
func (r *run) table2Window(ins []t2input, traced bool) *t2stats {
	st := &t2stats{out: map[int]*t2result{}}
	for k := range st.wall {
		st.wall[k] = make([][]float64, len(ins))
		st.cpu[k] = make([][]float64, len(ins))
	}
	sampler := startPeakSampler()
	defer sampler.close()
	r.rec.track(table2Track, "table2")
	budget := r.budget(shareTable)
	start := time.Now()
	for {
		passStart := time.Now()
		st.perPass = append(st.perPass, 0)
		for i := range ins {
			r.t2Analyze(i, &ins[i], st, sampler, traced)
			r.t2Restore(i, &ins[i], st, sampler)
		}
		for i := range ins {
			r.t2Optimize(i, &ins[i], st, sampler, traced)
		}
		st.passes++
		if st.passes >= t2MinPasses && time.Since(start)+time.Since(passStart) > budget {
			st.window = time.Since(start)
			return st
		}
	}
}

// sampleResult is one timed sample's figures, per operation.
type sampleResult struct {
	wall, cpu time.Duration
	peak, gc  float64 // MB of the first operation; GC cycles
}

// sample is one timed sample of b repetitions of an operation: it
// settles memory, then runs op b times, checking each result with check
// outside the operation's time. It returns the wall and process CPU
// time per operation, the first operation's peak memory (taken from
// settled memory, before its check) and the GC cycles per operation.
// op reports false when it failed; a failed operation or check ends the
// sample.
func sample[T any](b int, sampler *peakSampler, op func(k int) (time.Duration, T, bool), check func(T) bool) (sampleResult, bool) {
	settle()
	sampler.reset()
	var res sampleResult
	var cycles uint64
	for k := 0; k < b; k++ {
		gc0, cpu0 := gcCycles(), processCPU()
		d, v, ok := op(k)
		res.cpu += processCPU() - cpu0
		cycles += gcCycles() - gc0
		if k == 0 {
			res.peak = sampler.take()
		}
		if !ok || !check(v) {
			return res, false
		}
		res.wall += d
	}
	res.wall /= time.Duration(b)
	res.cpu /= time.Duration(b)
	res.gc = float64(cycles) / float64(b)
	return res, true
}

// add records a successful sample of program i's kind k (0 analyze,
// 1 restore, 2 optimize).
func (st *t2stats) add(k, i int, res sampleResult) {
	st.wall[k][i] = append(st.wall[k][i], ms(res.wall))
	st.cpu[k][i] = append(st.cpu[k][i], ms(res.cpu))
	st.ops[k].add(res.wall)
	st.perPass[st.passes] += ms(res.wall)
}

func (r *run) t2Analyze(i int, in *t2input, st *t2stats, sampler *peakSampler, traced bool) {
	b := batchOf(in.instr, batchAnalyze)
	var last *core.Analysis
	res, ok := sample(b, sampler, func(int) (time.Duration, *core.Analysis, bool) {
		r.attempted++
		var alloc0 uint64
		if traced {
			alloc0 = allocBytes()
		}
		a, d, err := r.analyzeOnce(in, b)
		if traced {
			st.coreAlloc += float64(allocBytes()-alloc0) / float64(b)
		}
		if err != nil {
			r.fail("table2 analyze %s: %v", in.name, err)
			return 0, nil, false
		}
		return d, a, true
	}, func(a *core.Analysis) bool {
		last = a
		return r.checkAnalysis("analyze", in, a, countsOf(a))
	})
	st.gcCycles += res.gc
	st.anaPeak = max(st.anaPeak, res.peak)
	if !ok {
		return
	}
	st.add(0, i, res)
	c := countsOf(last)
	st.nodes += c.nodes
	st.edges += c.edges
	st.iter1 += c.iter1
	st.iter2 += c.iter2
}

// analyzeOnce is one analyze operation: sxe.Decode then core.Analyze.
func (r *run) analyzeOnce(in *t2input, b int) (*core.Analysis, time.Duration, error) {
	rec := r.rec
	t0 := time.Now()
	root := rec.begin(table2Track, noSpan, "table2.analyze")
	rec.arg(root, batchArg, int64(b))
	sp := rec.begin(table2Track, root, "sxe.decode")
	p, err := sxe.Decode(in.img)
	rec.end(sp)
	if err != nil {
		rec.end(root)
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	ta := time.Now()
	sp = rec.begin(table2Track, root, "core.analyze")
	a, err := core.Analyze(p, core.WithConfig(core.DefaultConfig()))
	rec.end(sp)
	rec.end(root)
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if rec != nil {
		// The six stage times core.Stats reports, laid out in pipeline
		// order under the core.Analyze span; what they leave uncovered
		// is core.other.
		off := ta
		for _, s := range []struct {
			name string
			d    time.Duration
		}{
			{"cfg.build", a.Stats.CFGBuild}, {"cfg.defubd", a.Stats.Init},
			{"core.psg_build", a.Stats.PSGBuild}, {"callgraph.build", a.Stats.CallGraphBuild},
			{"core.phase1", a.Stats.Phase1}, {"core.phase2", a.Stats.Phase2},
		} {
			rec.add(table2Track, sp, s.name, off, s.d)
			off = off.Add(s.d)
		}
	}
	return a, d, nil
}

func (r *run) t2Restore(i int, in *t2input, st *t2stats, sampler *peakSampler) {
	b := batchOf(in.instr, batchRestore)
	// Restore's program argument is not part of the operation: decode
	// one per repetition before the sample starts.
	progs := make([]*prog.Program, b)
	for k := range progs {
		p, err := sxe.Decode(in.img)
		if err != nil {
			r.attempted++
			r.fail("table2 restore %s: decode program: %v", in.name, err)
			return
		}
		progs[k] = p
	}
	res, ok := sample(b, sampler, func(k int) (time.Duration, *core.Analysis, bool) {
		r.attempted++
		rec := r.rec
		t0 := time.Now()
		root := rec.begin(table2Track, noSpan, "table2.restore")
		rec.arg(root, batchArg, int64(b))
		sp := rec.begin(table2Track, root, "snapshot.decode")
		snap, err := snapshot.Decode(in.snap)
		rec.end(sp)
		var a *core.Analysis
		if err == nil {
			sp = rec.begin(table2Track, root, "snapshot.restore")
			a, err = snap.Restore(progs[k], core.WithConfig(core.DefaultConfig()))
			rec.end(sp)
		}
		rec.end(root)
		d := time.Since(t0)
		progs[k] = nil
		if err != nil {
			r.fail("table2 restore %s: %v", in.name, err)
			return 0, nil, false
		}
		return d, a, true
	}, func(a *core.Analysis) bool {
		return r.checkAnalysis("restore", in, a, in.counts)
	})
	st.gcCycles += res.gc
	st.anaPeak = max(st.anaPeak, res.peak)
	if !ok {
		return
	}
	st.add(1, i, res)
	st.snapBytes += float64(len(in.snap))
}

// checkAnalysis is the table2 correctness gate for one analysis: it
// must pass check.Invariants, its summaries must be byte-identical to
// the set-up analysis the snapshot was captured from, and its PSG
// counts must repeat exactly.
func (r *run) checkAnalysis(kind string, in *t2input, a *core.Analysis, c t2counts) bool {
	if vs := check.Invariants(a); len(vs) > 0 {
		r.fail("table2 %s %s: %d invariant violation(s), first: %v", kind, in.name, len(vs), vs[0])
		return false
	}
	if summaryDigest(a) != in.digest {
		r.fail("table2 %s %s: summaries differ from the set-up analysis", kind, in.name)
		return false
	}
	if c != in.counts {
		r.fail("table2 %s %s: PSG counts %+v, set-up analysis had %+v", kind, in.name, c, in.counts)
		return false
	}
	return true
}

func (r *run) t2Optimize(i int, in *t2input, st *t2stats, sampler *peakSampler, traced bool) {
	b := batchOf(in.optInstr, batchOptimize)
	res, ok := sample(b, sampler, func(int) (time.Duration, struct{}, bool) {
		r.attempted++
		d, ok := r.optimizeOnce(i, in, st, b, traced)
		return d, struct{}{}, ok
	}, func(struct{}) bool { return true })
	st.gcCycles += res.gc
	st.optPeak = max(st.optPeak, res.peak)
	if ok {
		st.add(2, i, res)
	}
}

// optimizeOnce is one optimize operation: sxe.Decode, then
// opt.OptimizeAnalyzed, then sxe.Encode. Its output must be
// byte-identical to every earlier repetition's.
func (r *run) optimizeOnce(i int, in *t2input, st *t2stats, b int, traced bool) (time.Duration, bool) {
	rec := r.rec
	t0 := time.Now()
	root := rec.begin(table2Track, noSpan, "table2.optimize")
	rec.arg(root, batchArg, int64(b))
	sp := rec.begin(table2Track, root, "sxe.decode")
	p, err := sxe.Decode(in.optImg)
	rec.end(sp)
	if err != nil {
		rec.end(root)
		r.fail("table2 optimize %s: decode: %v", in.name, err)
		return 0, false
	}
	opts := opt.DefaultOptions()
	var tr *obs.Tracer
	var trStart time.Time
	var alloc0 uint64
	if traced {
		tr = obs.NewTracer()
		trStart = time.Now()
		opts.Analysis.Tracer = tr
		alloc0 = allocBytes()
	}
	osp := rec.begin(table2Track, root, "opt.optimize")
	out, _, rep, err := opt.OptimizeAnalyzed(p, opts)
	rec.end(osp)
	if traced {
		st.optAlloc += float64(allocBytes()-alloc0) / float64(b)
	}
	var img []byte
	if err == nil {
		sp = rec.begin(table2Track, root, "sxe.encode")
		img, err = sxe.Encode(out)
		rec.end(sp)
	}
	rec.end(root)
	d := time.Since(t0)
	if err != nil {
		r.fail("table2 optimize %s: %v", in.name, err)
		return 0, false
	}
	if traced {
		shares, err := addAnalysisSpans(rec, osp, tr, trStart)
		if err != nil {
			r.fail("table2 optimize %s: reading the optimizer trace: %v", in.name, err)
			return 0, false
		}
		st.dirtyShare = append(st.dirtyShare, shares...)
	}
	if prev, ok := st.out[i]; ok {
		if !bytes.Equal(prev.img, img) || prev.rep != *rep {
			r.fail("table2 optimize %s: output differs between repetitions", in.name)
			return 0, false
		}
		return d, true
	}
	st.out[i] = &t2result{img: img, rep: *rep}
	return d, true
}

// addAnalysisSpans reads the optimizer's obs.Tracer — the analyze and
// reanalyze spans on its pipeline thread — and records them under the
// opt.optimize span as "opt.analysis". It returns each reanalysis's
// dirty routines divided by the routine count.
func addAnalysisSpans(rec *recorder, parent int32, tr *obs.Tracer, trStart time.Time) ([]float64, error) {
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	type ev struct {
		ts, dur float64
		args    map[string]int64
		re      bool
	}
	var evs []ev
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Tid == 0 && (e.Name == "analyze" || e.Name == "reanalyze") {
			args := map[string]int64{}
			for k, v := range e.Args {
				if f, ok := v.(float64); ok {
					args[k] = int64(f)
				}
			}
			evs = append(evs, ev{e.Ts, e.Dur, args, e.Name == "reanalyze"})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
	var shares []float64
	end := -1.0
	for _, e := range evs {
		if e.ts < end { // nested inside an analysis already counted
			continue
		}
		end = e.ts + e.dur
		start := trStart.Add(time.Duration(e.ts * 1e3))
		id := rec.add(table2Track, parent, "opt.analysis", start, time.Duration(e.dur*1e3))
		for k, v := range e.args {
			rec.arg(id, k, v)
		}
		if e.re && e.args["routines"] > 0 {
			shares = append(shares, float64(e.args["dirty_routines"])/float64(e.args["routines"]))
		}
	}
	return shares, nil
}

// table2Check runs each optimized program and its input on the
// emulator: the output must be observably identical to the input's.
// (The window's repetitions already required byte-identical output.)
func (r *run) table2Check(ins []t2input, st *t2stats, checked map[int]*t2exact) {
	idx := make([]int, 0, len(st.out))
	for i := range st.out {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		in, res := &ins[i], st.out[i]
		sha := sha256.Sum256(res.img)
		shaHex := hex.EncodeToString(sha[:])
		if prev, ok := checked[i]; ok {
			// A later pass of this run: the output must match the one
			// already verified.
			if prev.OptimizedSHA != shaHex {
				r.fail("table2 optimize %s: output differs between repetitions", in.name)
			}
			continue
		}
		e := r.exact.profile(in.name)
		checked[i] = e
		e.OptimizedSHA = shaHex
		e.DeadInstructions, e.SpillsRemoved = res.rep.DeadInstructions, res.rep.SpillsRemoved
		e.SaveRestoreRewrites, e.Rounds, e.Reanalyses = res.rep.SaveRestoreRewrites, res.rep.Rounds, res.rep.Reanalyses
		e.InstructionsBefore, e.InstructionsAfter = res.rep.InstructionsBefore, res.rep.InstructionsAfter
		e.PSGNodes, e.PSGEdges, e.Phase1Iterations, e.Phase2Iterations = in.counts.nodes, in.counts.edges, in.counts.iter1, in.counts.iter2

		steps, err := verifyOptimized(in.optImg, res.img, emuMaxSteps)
		if err != nil {
			r.fail("table2 optimize %s: %v", in.name, err)
			continue
		}
		e.StepsBefore, e.StepsAfter = steps[0], steps[1]
	}
}

// verifyOptimized runs the input and the optimized image on the
// emulator and requires identical observable output; it returns the
// dynamic instruction counts before and after.
func verifyOptimized(inImg, outImg []byte, maxSteps int64) ([2]int64, error) {
	var steps [2]int64
	var res [2]emu.Result
	for k, img := range [][]byte{inImg, outImg} {
		p, err := sxe.Decode(img)
		if err != nil {
			return steps, err
		}
		if res[k], err = emu.Run(p, maxSteps); err != nil {
			return steps, fmt.Errorf("emulator: %w", err)
		}
		steps[k] = res[k].Steps
	}
	if !emu.SameOutput(res[0], res[1]) {
		return steps, fmt.Errorf("optimized program's output differs from its input's")
	}
	return steps, nil
}

func (r *run) table2Metrics(ins []t2input, st *t2stats, checked map[int]*t2exact) {
	// Each program's rate is its instructions over its median time per
	// operation; the suite's rate is their geometric mean, so every
	// program counts once. The metrics take the process's CPU time,
	// which leaves out what the host steals for other guests; the wall
	// rates go to the record.
	rate := func(k int, times [3][][]float64) float64 {
		var lg float64
		for i := range ins {
			instr := ins[i].instr
			if k == 2 {
				instr = ins[i].optInstr
			}
			lg += math.Log(float64(instr) / medianOf(times[k][i]))
		}
		return math.Exp(lg / float64(len(ins)))
	}
	wallRates := map[string]float64{}
	for k, name := range []string{"analyze", "restore", "optimize"} {
		r.e2e[name+"_kinstr_per_s"] = rate(k, st.cpu)
		wallRates[name] = rate(k, st.wall)
	}
	// Code size sums over the suite. Dynamic counts span five orders
	// of magnitude across the profiles, so their sum would be one or two
	// programs' result; each program's ratio counts equally instead,
	// averaged by the geometric mean.
	var before, after, logRatio float64
	for _, e := range checked {
		before += float64(e.InstructionsBefore)
		after += float64(e.InstructionsAfter)
		logRatio += math.Log(float64(e.StepsAfter) / float64(e.StepsBefore))
	}
	r.e2e["code_size_reduction_pct"] = 100 * (before - after) / before
	r.e2e["dyn_instr_reduction_pct"] = 100 * (1 - math.Exp(logRatio/float64(len(checked))))
	r.e2e["analyze_peak_mb"] = st.anaPeak
	r.e2e["optimize_peak_mb"] = st.optPeak
	batches := map[string][3]int{}
	for i := range ins {
		in := &ins[i]
		batches[in.name] = [3]int{batchOf(in.instr, batchAnalyze), batchOf(in.instr, batchRestore), batchOf(in.optInstr, batchOptimize)}
	}
	r.record["table2"] = map[string]any{
		"passes": st.passes, "pass_ms": st.passMs(), "each_pass_ms": st.perPass, "window_s": st.window.Seconds(),
		"batches_analyze_restore_optimize": batches, "wall_kinstr_per_s": wallRates,
		"analyze": st.ops[0].summary(), "restore": st.ops[1].summary(), "optimize": st.ops[2].summary(),
	}
}

// table2Layers turns the traced window's spans into per-pass layer
// times and records the exact counts beside them.
func (r *run) table2Layers(st *t2stats, checked map[int]*t2exact) {
	a := r.attr
	r.rec.attribute(a, "table2.analyze", "table2.restore", "table2.optimize")
	// Per pass over the suite: one analyze, restore and optimize of
	// every program (attribute weighs each repetition by 1/batch).
	n := float64(st.passes)
	perPass := func(layer string) float64 {
		return a.layer(layer, "table2.analyze", "table2.restore", "table2.optimize") / n
	}
	for _, l := range []string{"sxe.decode", "sxe.encode", "cfg.build", "cfg.defubd", "core.psg_build",
		"callgraph.build", "core.phase1", "core.phase2", "snapshot.decode", "snapshot.restore", "opt.analysis"} {
		r.layers[l+"_ms"] = perPass(l)
	}
	r.layers["core.other_ms"] = perPass("core.analyze")
	r.layers["opt.pass_ms"] = perPass("opt.optimize")
	for _, k := range []string{"analyze", "restore", "optimize"} {
		kind := "table2." + k
		r.layers["trace."+k+"_attributed_pct"] = a.attributedPct(kind)
		if a.worst[kind] < -0.01 {
			r.fail("table2 trace: a %s layer has negative self time (%.3f ms): child spans overlap", k, a.worst[kind])
		}
		if pct := a.attributedPct(kind); pct < 95 || pct > 100.5 {
			r.fail("table2 trace: %s layers account for %.2f%% of wall time, want 95–100", k, pct)
		}
	}
	r.layers["core.psg_nodes"] = float64(st.nodes) / n
	r.layers["core.psg_edges"] = float64(st.edges) / n
	r.layers["core.phase1_iterations"] = float64(st.iter1) / n
	r.layers["core.phase2_iterations"] = float64(st.iter2) / n
	r.layers["core.alloc_mb"] = st.coreAlloc / (1 << 20) / n
	r.layers["opt.alloc_mb"] = st.optAlloc / (1 << 20) / n
	r.layers["runtime.gc_cycles"] = st.gcCycles / n
	r.layers["snapshot.image_mb"] = st.snapBytes / (1 << 20) / n
	var share float64
	for _, s := range st.dirtyShare {
		share += s
	}
	if len(st.dirtyShare) > 0 {
		share /= float64(len(st.dirtyShare))
	}
	r.layers["opt.dirty_routine_share"] = share
	var dead, spills, sr, rounds, rean, sb, sa float64
	for _, e := range checked {
		dead += float64(e.DeadInstructions)
		spills += float64(e.SpillsRemoved)
		sr += float64(e.SaveRestoreRewrites)
		rounds += float64(e.Rounds)
		rean += float64(e.Reanalyses)
		sb += float64(e.StepsBefore)
		sa += float64(e.StepsAfter)
	}
	r.layers["opt.dead_instructions"] = dead
	r.layers["opt.spills_removed"] = spills
	r.layers["opt.saverestore_rewrites"] = sr
	r.layers["opt.rounds"] = rounds
	r.layers["opt.reanalyses"] = rean
	r.layers["emu.steps_before"] = sb
	r.layers["emu.steps_after"] = sa
}
