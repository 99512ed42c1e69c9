package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"time"
)

// This file is the stack's one scrape loop. Whenever -debug-addr or -series
// is set, a single goroutine ticks: it samples the Go runtime into the
// runtime_* series, takes one Registry.Snapshot, closes the slow-read and
// request-trace windows, publishes /progress from that snapshot and — with
// -series — appends the snapshot to the archive as one JSON line, so "when
// did this run degrade" can be answered after the process is gone.
//
// The archive is JSON Lines: one SeriesPoint per tick with absolute values,
// each line exactly the Snapshot a /stats call at that instant would have
// returned plus its timestamp. Any JSON tool reads it; a last line without
// its newline marks a run that died mid-write, and every line before it is
// still valid. Retention keeps the file as the only state: at the cap the
// file is re-read, every other line counted from the newest is kept, and the
// result replaces the file by rename, halving resolution instead of growing
// without bound.

const (
	// DefaultSeriesInterval is the -series-interval default.
	DefaultSeriesInterval = 250 * time.Millisecond
	// seriesMaxLines caps the archive. At the default interval it covers
	// ~4 minutes at full resolution and each compaction doubles the covered
	// span. A line measures ≈3.7 KB (minigiraffe -stream, giraffed), so the
	// file stays near 4 MiB — single-digit MiB even at twice that.
	seriesMaxLines = 1024
)

// SeriesPoint is one archived line: a scrape and when it was taken.
type SeriesPoint struct {
	Time time.Time `json:"time"`
	Snapshot
}

// sampler is the scrape loop and the state it keeps between ticks.
type sampler struct {
	reg     *Registry
	slow    *SlowReads
	traces  *ReqTracer
	runtime *runtimeSampler
	start   time.Time
	path    string // "": no archive
	max     int    // archive line cap; a field so tests can shrink it

	mu        sync.Mutex // held across a whole tick
	latest    Progress
	lastReads int64
	lastTick  time.Time
	f         *os.File
	lines     int
	err       error // first archive error; reported by stop

	stopOnce sync.Once
	quit     chan struct{}
	done     chan struct{}
}

// startSampler takes an immediate baseline sample and starts the loop. slow
// and traces may be nil; a nil registry publishes zeros but cannot be
// archived. With a path the file is created and every tick appends to it.
func startSampler(reg *Registry, slow *SlowReads, traces *ReqTracer, path string, interval time.Duration) (*sampler, error) {
	s := &sampler{
		reg:     reg,
		slow:    slow,
		traces:  traces,
		runtime: newRuntimeSampler(reg),
		start:   time.Now(),
		path:    path,
		max:     seriesMaxLines,
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.lastTick = s.start
	if path != "" {
		if reg == nil {
			return nil, errors.New("obs: series recording needs a registry")
		}
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		s.f = f
	}
	s.tick(s.start)
	// The loop exits via s.quit and signals s.done; stop closes and waits.
	go s.loop(interval)
	return s, nil
}

func (s *sampler) loop(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.tick(now)
		case <-s.quit:
			return
		}
	}
}

// tick is one sample at time now. Split from the loop so tests drive the
// timeline instead of sleeping.
func (s *sampler) tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Runtime first, so this scrape (and the manifest snapshot taken after
	// stop's final tick) sees the refreshed runtime_* values.
	s.runtime.sample()
	snap := s.reg.Snapshot()
	s.slow.Rotate()
	s.traces.Rotate()
	s.publish(now, snap)
	if s.f != nil && s.err == nil {
		s.err = s.archive(SeriesPoint{Time: now.UTC(), Snapshot: *snap})
	}
}

// publish derives /progress from the scrape; the windowed read rate is the
// delta since the previous tick.
func (s *sampler) publish(now time.Time, snap *Snapshot) {
	p := Progress{Timestamp: now, ElapsedSeconds: SanitizeFloat(now.Sub(s.start).Seconds())}
	if snap != nil {
		p.Reads = snap.Counters[MetricPipelineReads]
		p.Batches = snap.Counters[MetricPipelineBatches]
		p.InFlightBatches = snap.Gauges[MetricPipelineInFlight]
		p.ReadsPerSec = Rate(float64(p.Reads-s.lastReads), now.Sub(s.lastTick))
		p.ReadsPerSecTotal = Rate(float64(p.Reads), now.Sub(s.start))
		if len(snap.Histograms) > 0 {
			p.StageP50Seconds = make(map[string]float64, len(snap.Histograms))
			p.StageP99Seconds = make(map[string]float64, len(snap.Histograms))
			for name, h := range snap.Histograms {
				p.StageP50Seconds[name] = h.P50
				p.StageP99Seconds[name] = h.P99
			}
		}
	}
	s.lastReads = p.Reads
	s.lastTick = now
	s.latest = p
}

// progress returns the most recently published sample.
func (s *sampler) progress() Progress {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// archive appends one line with a single write, so a line is on disk whole
// or (the process died inside the write) as a torn tail. At the cap the new
// line goes through compaction instead and the file never holds more than
// max lines.
func (s *sampler) archive(pt SeriesPoint) error {
	line, err := json.Marshal(pt)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if s.lines < s.max {
		s.lines++
		_, err = s.f.Write(line)
		return err
	}
	old, err := os.ReadFile(s.path)
	if err != nil {
		return err
	}
	all := bytes.SplitAfter(append(old, line...), []byte{'\n'})
	all = all[:len(all)-1] // the empty piece after the final newline
	var kept []byte
	s.lines = 0
	for i, l := range all {
		if (len(all)-1-i)%2 == 0 {
			kept = append(kept, l...)
			s.lines++
		}
	}
	// Replace by rename: a reader sees the old file or the new one, never
	// half a rewrite.
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, kept, 0o644); err != nil {
		return err
	}
	if err := s.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	s.f, err = os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0)
	return err
}

// stop ends the loop, takes a final sample and closes the archive. It
// returns the first archive error, so a silently failing flight recorder
// cannot pass for a healthy one. Idempotent and nil-safe.
func (s *sampler) stop() error {
	if s == nil {
		return nil
	}
	s.stopOnce.Do(func() {
		close(s.quit)
		<-s.done
		s.tick(time.Now())
		if s.f != nil {
			if err := s.f.Close(); err != nil && s.err == nil {
				s.err = err
			}
		}
	})
	return s.err
}
