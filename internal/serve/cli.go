package serve

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os/signal"
	"syscall"

	"repro/internal/api"
)

// RunCLI is the daemon command line, `spike serve`: parse flags from
// args, then either run the smoke self-test or serve until
// SIGINT/SIGTERM. name labels usage output.
func RunCLI(name string, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:8723", "listen `address`")
		parallel = fs.Int("parallel", 0, "solver and batch worker count (0 = GOMAXPROCS)")
		maxProg  = fs.Int("max-programs", DefaultMaxPrograms, "program cache capacity (entries)")
		maxAna   = fs.Int("max-analyses", DefaultMaxAnalyses, "analysis cache capacity (entries)")
		smoke    = fs.String("smoke", "", "self-test: load `program`, drive the query surface in-process, exit")
		preload  = fs.String("load", "", "load `program` (SXE image or .s assembly) at startup")
		flight   = fs.Int("flightrecorder", 0, "retain the last `n` request span trees for GET /debug/trace (0 = off)")
		slowlog  = fs.Duration("slowlog", 0, "log queries slower than `threshold` to stderr and GET /debug/slowlog (0 = off)")
		pprofOn  = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags]\n\n"+
			"Serve the interprocedural analysis over HTTP/JSON (wire formats %s, %s).\n"+
			"Endpoints: POST /v1/{programs,summary,liveness,callsite,callgraph,analyze,batch},\n"+
			"POST /v1/{patch,optimize,snapshot}, GET /healthz, GET /metrics[?format=prometheus],\n"+
			"GET /debug/{trace,slowlog}, and GET /debug/pprof/ with -pprof.\n\n",
			name, api.SchemaVersion, api.SchemaVersionV2)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	conf := Config{
		Addr:           *addr,
		Parallelism:    *parallel,
		MaxPrograms:    *maxProg,
		MaxAnalyses:    *maxAna,
		FlightRecorder: *flight,
		SlowQuery:      *slowlog,
		Pprof:          *pprofOn,
	}
	if *slowlog > 0 {
		conf.SlowLog = stderr
	}
	if *smoke != "" {
		return Smoke(*smoke, conf, stdout)
	}
	s := New(conf)
	if *preload != "" {
		lp, err := s.load(&api.LoadRequest{Path: *preload})
		if err != nil {
			return fmt.Errorf("preload %s: %w", *preload, err)
		}
		fmt.Fprintf(stdout, "%s: loaded %s as %s\n", name, *preload, lp.id)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx, ready) }()
	select {
	case a := <-ready:
		fmt.Fprintf(stdout, "%s: listening on http://%s (schema %s)\n", name, a, api.SchemaVersion)
	case err := <-errc:
		return err
	}
	return <-errc
}
