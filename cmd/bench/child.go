package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/extend"
	"repro/internal/fastq"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/seeds"
)

// setupReps is how often a pass workload repeats its set-up; setup_s is the
// median. Nine, not fewer: the first repetition or two run cold, and with
// nine the quartiles that -compare judges the spread by leave them out.
// (serve_http spawns giraffed serveSetupReps times instead.)
const setupReps = 9

// childMain runs one job in this process and writes its Result.
func childMain(jobPath string) error {
	var j job
	if err := readJSON(jobPath, &j); err != nil {
		return err
	}
	w, err := workloadByName(j.Workload)
	if err != nil {
		return err
	}
	var exp expected
	if err := readJSON(j.Inputs.Expected, &exp); err != nil {
		return err
	}
	res := &Result{
		Workload: w.name, Why: w.why, Seed: j.Seed, Seconds: j.Seconds, Threads: j.Threads,
		Reads: j.Inputs.Reads, GenS: j.GenS, Metrics: map[string]Metric{},
		// A reference pass that breaks an invariant fails the workload
		// whatever the front end then produces.
		Attempted: int64(len(exp.ReadHashes)), Failed: exp.Invalid, FailNote: exp.Note,
	}
	switch {
	case j.Traced:
		err = runTraced(&j, w, &exp, res)
	case w.front == frontServe:
		err = runServe(&j, res)
	default:
		err = runPasses(&j, w, &exp, res)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return writeJSON(j.ResultPath, res)
}

// coreOptions are the tuning parameters a workload's mapper runs under.
func (w workloadDef) coreOptions(threads int) core.Options {
	return core.Options{
		Threads:       threads,
		BatchSize:     w.batch,
		CacheCapacity: w.capacity,
		EpochCapacity: w.epoch,
		Scheduler:     sched.Dynamic,
	}
}

func (w workloadDef) pipelineOptions(threads int) pipeline.Options {
	return pipeline.Options{Workers: threads, BatchSize: w.batch, Scheduler: sched.Dynamic}
}

// passRunner is a loaded pass workload: what set-up builds. pass maps the
// whole input once and is what gets timed; check compares that pass's output
// with the reference and runs between timings; csvSHA256 digests the last
// pass's output.
type passRunner interface {
	pass() error
	check() (failed int64, note string, err error)
	csvSHA256() (string, error)
}

// batchRunner drives core.Mapper.Run over the captured seeds.
type batchRunner struct {
	exp  *expected
	recs []seeds.ReadSeeds
	m    *core.Mapper
	last *core.Result
}

// setupBatch is the batch front end's set-up: load the files, build the
// mapper, map the first read.
func setupBatch(j *job, w workloadDef, exp *expected) (passRunner, error) {
	f, err := gbz.Load(j.Inputs.GBZ)
	if err != nil {
		return nil, err
	}
	recs, err := seeds.ReadFile(j.Inputs.Seeds)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMapper(f, w.coreOptions(j.Threads))
	if err != nil {
		return nil, err
	}
	m.MapBatch(0, recs[:1], 0, make([][]extend.Extension, 1))
	return &batchRunner{exp: exp, recs: recs, m: m}, nil
}

func (r *batchRunner) pass() (err error) {
	// Only the current pass's result is alive while it runs, as in a single
	// run of the proxy: peak_rss_mb must not count a second one.
	r.last = nil
	r.last, err = r.m.Run(r.recs)
	return err
}

func (r *batchRunner) check() (int64, string, error) {
	failed, first := r.exp.diff(r.last.Extensions)
	if failed == 0 {
		return 0, "", nil
	}
	return failed, fmt.Sprintf("read %s: extensions differ from the reference pass", r.recs[first].Read.Name), nil
}

func (r *batchRunner) csvSHA256() (string, error) { return csvDigest(r.recs, r.last.Extensions) }

// streamRunner drives pipeline.RunToCSV from the FASTQ file into a hash.
type streamRunner struct {
	exp    *expected
	fastq  string
	opts   pipeline.Options
	ix     *giraffe.Indexes
	m      *core.Mapper
	digest string
}

// setupStream is the streaming front end's set-up: load the graph, build
// the indexes FASTQ extraction needs, map the first read of the file.
func setupStream(j *job, w workloadDef, exp *expected) (passRunner, error) {
	f, err := gbz.Load(j.Inputs.GBZ)
	if err != nil {
		return nil, err
	}
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMapperFromIndexes(f, ix.Dist, ix.Bi, w.coreOptions(j.Threads))
	if err != nil {
		return nil, err
	}
	first, err := firstFASTQRecord(ix, j.Inputs.FASTQ)
	if err != nil {
		return nil, err
	}
	m.MapBatch(0, []seeds.ReadSeeds{first}, 0, make([][]extend.Extension, 1))
	return &streamRunner{exp: exp, fastq: j.Inputs.FASTQ, opts: w.pipelineOptions(j.Threads), ix: ix, m: m}, nil
}

func (r *streamRunner) pass() error {
	src, err := giraffe.OpenExtractSource(r.ix.MinIx, r.fastq, 0)
	if err != nil {
		return err
	}
	defer src.Close()
	h := sha256.New()
	if _, err := pipeline.RunToCSV(r.m, src, h, r.opts); err != nil {
		return err
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

func (r *streamRunner) check() (int64, string, error) {
	if r.digest == r.exp.CSVSHA256 {
		return 0, "", nil
	}
	// The CSV differs: one more pass with an emitter that compares read by
	// read says how many reads are wrong.
	failed, err := streamDiff(r.m, r.ix, r.fastq, r.opts, r.exp)
	return failed, fmt.Sprintf("CSV digest %s differs from the reference pass's %s", r.digest, r.exp.CSVSHA256), err
}

func (r *streamRunner) csvSHA256() (string, error) { return r.digest, nil }

func firstFASTQRecord(ix *giraffe.Indexes, path string) (seeds.ReadSeeds, error) {
	file, err := os.Open(path)
	if err != nil {
		return seeds.ReadSeeds{}, err
	}
	defer file.Close()
	read, err := fastq.NewScanner(file).Next()
	if err != nil {
		return seeds.ReadSeeds{}, fmt.Errorf("%s: %w", path, err)
	}
	return giraffe.Preprocess(ix.MinIx, &read)
}

// diffEmitter compares each emitted read with the reference by hash.
type diffEmitter struct {
	exp    *expected
	i      int
	failed int64
}

func (d *diffEmitter) Emit(_ *seeds.ReadSeeds, exts []extend.Extension) error {
	if d.i >= len(d.exp.ReadHashes) || hashExtensions(exts) != d.exp.ReadHashes[d.i] {
		d.failed++
	}
	d.i++
	return nil
}

// streamDiff streams the FASTQ once more and counts the reads whose
// extensions differ from the reference (a short stream counts the missing
// reads too).
func streamDiff(m *core.Mapper, ix *giraffe.Indexes, path string, opts pipeline.Options, exp *expected) (int64, error) {
	src, err := giraffe.OpenExtractSource(ix.MinIx, path, 0)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	d := &diffEmitter{exp: exp}
	if _, err := pipeline.Run(m, src, d, opts); err != nil {
		return 0, err
	}
	if missing := len(exp.ReadHashes) - d.i; missing > 0 {
		d.failed += int64(missing)
	}
	if d.failed == 0 {
		// Same extensions, different bytes: the CSV encoding itself changed.
		d.failed = int64(len(exp.ReadHashes))
	}
	return d.failed, nil
}

// runPasses measures a pass workload end to end with tracing off: set-up
// several times, one discarded warm-up pass, then whole passes until the
// timed seconds are spent, each checked against the reference between
// timings.
func runPasses(j *job, w workloadDef, exp *expected, res *Result) error {
	setup := setupBatch
	if w.front == frontStream {
		setup = setupStream
	}
	var r passRunner
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		// Each repetition starts from a collected heap, as a fresh process
		// does, not in the middle of collecting its predecessor.
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setup(j, w, exp); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", setups...)

	reads := float64(j.Inputs.Reads)
	var rate, cpuUs, allocs, bytes []float64
	begin := time.Now()
	for pass := 0; ; pass++ {
		before := readUsage()
		if err := r.pass(); err != nil {
			return err
		}
		after := readUsage()
		failed, note, err := r.check()
		if err != nil {
			return err
		}
		res.Attempted += int64(j.Inputs.Reads)
		res.Failed += failed
		if res.FailNote == "" {
			res.FailNote = note
		}
		if pass == 0 {
			// Warm-up: caches fill, the heap reaches its steady size. The
			// timed window starts after it.
			begin = time.Now()
			continue
		}
		wall := after.at.Sub(before.at)
		rate = append(rate, reads/wall.Seconds())
		cpuUs = append(cpuUs, float64(after.cpu-before.cpu)/float64(time.Microsecond)/reads)
		allocs = append(allocs, float64(after.mallocs-before.mallocs)/reads)
		bytes = append(bytes, float64(after.bytes-before.bytes)/reads)
		if time.Since(begin).Seconds() >= j.Seconds {
			break
		}
	}
	res.setSliced("reads_per_s", rate, fastQuartile(true))
	res.setSliced("cpu_us_per_read", cpuUs, fastQuartile(false))
	res.setSliced("allocs_per_read", allocs, mean)
	res.setSliced("bytes_per_read", bytes, mean)
	rss, err := peakRSSMiB(0)
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	res.OutputSHA256, err = r.csvSHA256()
	return err
}
