package obs

import (
	"flag"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

const (
	// progressInterval is the sampler's cadence when nothing is archived:
	// /progress, the /slow window and the runtime_* series move once a second.
	progressInterval = time.Second
	// traceErrCap is the per-shard retention cap for non-2xx request traces.
	traceErrCap = 256
)

// StackConfig is the observability command line of the cmd/* tools: one field
// per flag, bound by each main to its own flag.*Var line (a tool without a
// flag leaves the field zero), plus the two things that identify the run.
type StackConfig struct {
	Tool  string        // the manifest's "tool"
	Flags *flag.FlagSet // resolved flag values for the manifest (nil: none)

	Threads        int           // -threads: map workers, ≤0 = all CPUs
	Obs            bool          // -obs: registry on with no other consumer
	DebugAddr      string        // -debug-addr
	Series         string        // -series
	SeriesInterval time.Duration // -series-interval
	Slow           int           // -slow
	TraceK         int           // -trace-k
	ReqTraces      string        // -req-traces
	Profile        string        // -profile
	Manifest       string        // -manifest: "" and "off" disable
}

// Stack is a running observability stack. Reg, Slow and Traces are nil when
// the configuration did not ask for them, and every handle derived from a nil
// one is a no-op, so callers pass them on unconditionally.
type Stack struct {
	Workers int // Threads resolved against GOMAXPROCS
	Reg     *Registry
	Slow    *SlowReads
	Traces  *ReqTracer

	cfg      StackConfig
	profiles *ProfileRecorder
	sampler  *sampler
	debug    *DebugServer
	man      *Manifest // nil: manifest disabled

	closeOnce sync.Once
	closeErr  error
}

// Start turns the flags into sinks, in one order: registry, slow-read
// reservoir, request tracer, profile recorder, sampler, debug server,
// manifest. A sink that fails to start stops the ones started before it.
//
// The sampler is the stack's one scrape loop (sampler.go). It runs whenever
// -debug-addr or -series is set, at -series-interval when it archives and at
// progressInterval when it only feeds the debug endpoint.
func Start(cfg StackConfig) (*Stack, error) {
	s := &Stack{cfg: cfg, Workers: cfg.Threads}
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Obs || cfg.DebugAddr != "" || cfg.Series != "" {
		// +2: the stages around the map workers (pipeline ingest and emit,
		// the serving submit path) record into their own shards past them.
		s.Reg = NewRegistry(s.Workers + 2)
	}
	if cfg.Slow > 0 {
		s.Slow = NewSlowReads(s.Workers, cfg.Slow)
	}
	if cfg.TraceK > 0 {
		s.Traces = NewReqTracer(s.Workers, cfg.TraceK, traceErrCap, s.Reg)
	}
	var err error
	if cfg.Profile != "" {
		if s.profiles, err = StartProfiles(cfg.Profile, DefaultProfileInterval); err != nil {
			return nil, err
		}
	}
	if cfg.DebugAddr != "" || cfg.Series != "" {
		interval := progressInterval
		if cfg.Series != "" {
			interval = cfg.SeriesInterval
			if interval <= 0 {
				interval = DefaultSeriesInterval
			}
		}
		if s.sampler, err = startSampler(s.Reg, s.Slow, s.Traces, cfg.Series, interval); err != nil {
			s.stopSinks()
			return nil, err
		}
	}
	if cfg.DebugAddr != "" {
		if s.debug, err = startDebugServer(cfg.DebugAddr, s.Reg, s.Slow, s.sampler); err != nil {
			s.stopSinks()
			return nil, err
		}
		log.Printf("debug endpoint on http://%s/", s.debug.Addr())
	}
	if cfg.Manifest != "" && cfg.Manifest != "off" {
		s.man = NewManifest(cfg.Tool)
		if cfg.Flags != nil {
			s.man.AddFlagSet(cfg.Flags)
		}
	}
	return s, nil
}

// stopSinks stops the background sinks in teardown order — debug server,
// sampler (its final sample), profiles — and returns the first error. Each
// stop is nil-safe and idempotent.
func (s *Stack) stopSinks() error {
	return firstErr(s.debug.Close(), s.sampler.stop(), s.profiles.Stop())
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AddWorkload hashes an input file into the manifest. With the manifest
// disabled the file is not read.
func (s *Stack) AddWorkload(label, path string) error {
	if s.man == nil {
		return nil
	}
	return s.man.AddWorkload(label, path)
}

// AddResult records an artifact the run produced. The series file and the
// request-trace dump are added by Close.
func (s *Stack) AddResult(path string) {
	if s.man != nil {
		s.man.AddResult(path)
	}
}

// Note attaches a free-form key to the manifest. "series" and "profiles" are
// Close's to write.
func (s *Stack) Note(key, value string) {
	if s.man != nil {
		s.man.Notes[key] = value
	}
}

// Close tears the stack down: debug server, the sampler's final sample, last
// profile segment, the request-trace Perfetto dump, then the manifest — with
// the "series" and "profiles" notes that name the run's own archives, the
// slow reads, the request-trace summary and the final snapshot — so
// everything the manifest points at is complete when it is written. Every
// step runs whatever the earlier ones returned; Close reports the first
// error, and a second Close does nothing and reports it again.
func (s *Stack) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.close() })
	return s.closeErr
}

func (s *Stack) close() error {
	err := s.stopSinks()
	dumped := s.cfg.ReqTraces != "" && s.Traces != nil
	if dumped {
		err = firstErr(err, writeReqTraces(s.cfg.ReqTraces, s.Traces))
	}
	if s.man == nil {
		return err
	}
	if s.cfg.Series != "" {
		s.man.AddResult(s.cfg.Series)
		s.man.Notes["series"] = filepath.Base(s.cfg.Series)
	}
	if s.cfg.Profile != "" {
		s.man.Notes["profiles"] = filepath.Base(s.cfg.Profile)
	}
	if dumped {
		s.man.AddResult(s.cfg.ReqTraces)
	}
	s.man.AddSlowReads(s.Slow)
	s.man.AddReqTraces(s.Traces)
	s.man.Finish(s.Reg)
	werr := s.man.Write(s.cfg.Manifest)
	if werr == nil {
		log.Printf("run manifest written to %s", s.cfg.Manifest)
	}
	return firstErr(err, werr)
}

// writeReqTraces dumps the sampled request traces as a Perfetto file.
func writeReqTraces(path string, t *ReqTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePerfettoRequests(f, t.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
