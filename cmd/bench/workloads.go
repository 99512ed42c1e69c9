package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/gbz"
	"repro/internal/seeds"
	"repro/internal/workload"
)

// frontEnd names which of the program's three entry loops a workload drives.
type frontEnd string

const (
	frontBatch  frontEnd = "batch"  // core.Mapper.Run over captured seeds
	frontStream frontEnd = "stream" // pipeline.RunToCSV fed by giraffe.ExtractSource
	frontServe  frontEnd = "serve"  // cmd/giraffed over loopback HTTP
)

// workloadDef is one named workload: the input set it generates and the
// tuning parameters its front end runs under.
type workloadDef struct {
	name  string
	why   string
	front frontEnd
	input string  // internal/workload input set
	scale float64 // read-count scale
	zipf  float64 // read-start skew (0 = uniform)
	// The three §VII-B tuning parameters plus the epoch cache. The serve
	// workload runs giraffed's shipped defaults and ignores them.
	batch, capacity, epoch int
}

// benchWorkloads are the four workloads, in run order. README.md has the
// longer reasons; the one-liners here are what BENCHMARK.json repeats.
var benchWorkloads = []workloadDef{
	{
		name: "batch_kernels", front: frontBatch,
		why:   "captured seeds, uniform starts, private per-batch caches: pure gbwt/cluster/extend/sched work plus GC, no parsing or encoding",
		input: "A-human", scale: 20, batch: 512, capacity: 256,
	},
	{
		name: "batch_zipf_epoch", front: frontBatch,
		why:   "zipf-skewed starts with the epoch-published shared cache and small batches: the snapshot/publish path, bypassed by batch_kernels",
		input: "A-human", scale: 20, zipf: 1.4, batch: 128, capacity: 128, epoch: 512,
	},
	{
		name: "stream_fastq_csv", front: frontStream,
		why:   "FASTQ in, CSV out through the streaming pipeline: ingest- and emit-bound, kernel speed-ups should barely move it",
		input: "B-yeast", scale: 2, batch: 512, capacity: 256,
	},
	{
		name: "serve_http", front: frontServe,
		why:   "giraffed with shipped defaults over loopback, 8-read requests, closed loop then open loop at 300 req/s: JSON, per-request preprocess and cache rebuild dominate",
		input: "A-human", scale: 20,
	},
}

func workloadNames() []string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// benchThreads is T: worker threads, and the cap on client connections.
func benchThreads() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// inputs are the generated files a child process works from.
type inputs struct {
	GBZ   string `json:"gbz"`
	FASTQ string `json:"fastq"`
	Seeds string `json:"seeds"`
	Reads int    `json:"reads"`
	// Expected holds the reference pass's digest and per-read hashes
	// (expected, check.go); Requests the pre-encoded /map bodies with their
	// expected result bytes (requestPool): serve_http's load, and what every
	// workload's serving-path probe sends.
	Expected string `json:"expected"`
	Requests string `json:"requests"`
}

// job is everything a child process needs, passed as a JSON file.
type job struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Threads  int     `json:"threads"`
	Inputs   inputs  `json:"inputs"`
	GenS     float64 `json:"gen_s"`
	// Giraffed is the server binary built from this commit (serve_http).
	Giraffed string `json:"giraffed,omitempty"`
	// TracePath receives the traced replay's spans.
	TracePath string `json:"trace_path,omitempty"`
	// ResultPath is where the child writes its Result.
	ResultPath string `json:"result_path"`
}

// orchestrator generates inputs, builds what must be built, and runs each
// workload in a child process of its own.
type orchestrator struct {
	workdir string
	seed    int64
	seconds float64
	quick   bool
}

// poolFactor is how many times more reads are generated than a workload
// uses: the seed draws the workload's reads from this pool.
const poolFactor = 2

// generate writes the workload's input files into dir: the program under
// test only ever sees these files. The pangenome and a pool of poolFactor
// times the workload's reads come from the input set's own fixed seed; the
// benchmark seed draws which reads of the pool the workload maps, and in
// what order. The graph is held fixed on purpose: with Spec.Seed = base +
// seed, allocs_per_read on batch_zipf_epoch — whose reads pile up on the
// first bases of each haplotype, so that one locus decides the count —
// spread 21 % across ten seeds (0.6 % on batch_kernels), wider than any
// bound worth gating on, and that spread was the generator's, not the
// mapper's. The reference pass runs here too, on the in-memory inputs, and
// leaves the expected output beside them.
func generate(w workloadDef, seed int64, quick bool, dir string) (inputs, error) {
	spec, err := workload.ByName(w.input)
	if err != nil {
		return inputs{}, err
	}
	scale := w.scale
	if quick {
		scale /= 10
	}
	spec = spec.Scaled(scale * poolFactor)
	spec.ZipfS = w.zipf
	b, err := workload.Generate(spec)
	if err != nil {
		return inputs{}, err
	}
	pool := b.Reads
	picks := rand.New(rand.NewSource(seed)).Perm(len(pool))[:len(pool)/poolFactor]
	b.Reads = make([]dna.Read, len(picks))
	for i, p := range picks {
		b.Reads[i] = pool[p]
	}
	in := inputs{
		GBZ:   filepath.Join(dir, spec.Name+".gbz"),
		FASTQ: filepath.Join(dir, spec.Name+".fq"),
		Seeds: filepath.Join(dir, spec.Name+"-seeds.bin"),
		Reads: len(b.Reads),
	}
	if err := gbz.Save(in.GBZ, b.GBZ()); err != nil {
		return inputs{}, err
	}
	if err := fastq.WriteFile(in.FASTQ, b.Reads); err != nil {
		return inputs{}, err
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		return inputs{}, err
	}
	if err := seeds.WriteFile(in.Seeds, recs); err != nil {
		return inputs{}, err
	}
	exp, refExts, err := buildExpected(b.GBZ(), recs)
	if err != nil {
		return inputs{}, err
	}
	in.Expected = filepath.Join(dir, "expected.json")
	if err := writeJSON(in.Expected, exp); err != nil {
		return inputs{}, err
	}
	requests, err := buildRequestPool(recs, refExts, seed)
	if err != nil {
		return inputs{}, err
	}
	in.Requests = filepath.Join(dir, "requests.json")
	if err := writeJSON(in.Requests, requests); err != nil {
		return inputs{}, err
	}
	return in, nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// run executes one workload: generate the inputs once, then for each tier
// spawn this same binary as a child with the fixed environment and read its
// Result back. Results come in tier order.
func (o orchestrator) run(name string, tiers []string) ([]*Result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	in, err := generate(w, o.seed, o.quick, dir)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", name, err)
	}
	genS := time.Since(t0).Seconds()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []*Result
	for _, tier := range tiers {
		j := job{
			Workload:   name,
			Seed:       o.seed,
			Seconds:    o.seconds,
			Traced:     tier == tierPerLayer,
			Threads:    benchThreads(),
			Inputs:     in,
			GenS:       genS,
			ResultPath: filepath.Join(dir, "result.json"),
		}
		if o.quick {
			j.Seconds = 1
		}
		if j.Traced {
			j.TracePath = filepath.Join(o.workdir, "trace-"+name+".json")
		} else if w.front == frontServe {
			if j.Giraffed, err = buildGiraffed(o.workdir); err != nil {
				return nil, err
			}
		}
		jobPath := filepath.Join(dir, "job.json")
		if err := writeJSON(jobPath, j); err != nil {
			return nil, err
		}
		cmd := exec.Command(self, "-child", jobPath)
		// The fixed environment of every measurement: T scheduler threads
		// and the default GC pacing, whatever the caller's shell exports.
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(j.Threads), "GOGC=100", childEnv+"=1")
		// The child reports through its result file; whatever it prints is
		// diagnostics and goes to this process's stderr.
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: child process: %w", name, err)
		}
		var res Result
		if err := readJSON(j.ResultPath, &res); err != nil {
			return nil, fmt.Errorf("%s: child result: %w", name, err)
		}
		results = append(results, &res)
	}
	return results, nil
}

// childEnv marks a process as a bench child; the package's tests use it to
// re-enter main from the test binary.
const childEnv = "MINIGIRAFFE_BENCH_CHILD"

// buildGiraffed compiles cmd/giraffed from the commit under test into the
// work directory and returns the binary's path.
func buildGiraffed(workdir string) (string, error) {
	abs, err := filepath.Abs(filepath.Join(workdir, "giraffed"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", abs, "repro/cmd/giraffed")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building giraffed: %w\n%s", err, out)
	}
	return abs, nil
}
