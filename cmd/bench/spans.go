package main

import (
	"encoding/json"
	"os"
	"time"
)

// layer identifies what a span timed. Names are package-qualified: the
// package is the layer, the suffix the call.
type layer uint8

const (
	// layerBatch is structural: one claimed batch on a worker, the parent of
	// the layer calls made for it. It is not itself a layer; its self time is
	// the replay's own loop overhead.
	layerBatch layer = iota
	layerCacheBuild
	layerCluster
	layerExtend
	layerEpochPublish
	layerIngest
	layerMapBatch
	layerEmit
	// layerRequest is structural: one served request, parent of its stages.
	layerRequest
	layerJSONDecode
	layerPreprocess
	layerSubmit
	layerJSONEncode
	numLayers
)

var layerNames = [numLayers]string{
	layerBatch:        "bench.batch",
	layerCacheBuild:   "gbwt.cache_build",
	layerCluster:      "cluster.cluster_seeds",
	layerExtend:       "extend.process_until_threshold_c",
	layerEpochPublish: "gbwt.epoch_publish",
	layerIngest:       "pipeline.ingest",
	layerMapBatch:     "core.mapbatch",
	layerEmit:         "pipeline.emit",
	layerRequest:      "bench.request",
	layerJSONDecode:   "serve.json_decode",
	layerPreprocess:   "giraffe.preprocess",
	layerSubmit:       "pipeline.submit",
	layerJSONEncode:   "serve.json_encode",
}

func (l layer) structural() bool { return l == layerBatch || l == layerRequest }

// span is one timed call: what, on which track, caused by which enclosing
// span, for which operation, from when to when.
type span struct {
	layer  layer
	parent int32 // index of the enclosing span on the same track, -1 at top level
	op     int32 // batch, read or request number: spans of one operation share it
	start  int64 // ns since the tracer's epoch
	end    int64
}

// tracer keeps spans in memory, one preallocated slice per track (a track is
// one goroutine of the replayed loop: worker i, or the ingest or emit
// stage), so recording takes no lock and allocates nothing in the steady
// state. A nil tracer records nothing: the same replay loop then runs
// untraced.
type tracer struct {
	epoch  time.Time
	tracks [][]span
	open   []int32 // per track: index of the innermost open span, -1 if none
}

func newTracer(tracks, spansPerTrack int) *tracer {
	t := &tracer{epoch: time.Now(), tracks: make([][]span, tracks), open: make([]int32, tracks)}
	for i := range t.tracks {
		t.tracks[i] = make([]span, 0, spansPerTrack)
		t.open[i] = -1
	}
	return t
}

// reset forgets every span, keeping the buffers.
func (t *tracer) reset() {
	for i := range t.tracks {
		t.tracks[i] = t.tracks[i][:0]
		t.open[i] = -1
	}
}

// begin opens a span on track; the returned handle closes it.
func (t *tracer) begin(track int, l layer, op int) int32 {
	if t == nil {
		return -1
	}
	idx := int32(len(t.tracks[track]))
	t.tracks[track] = append(t.tracks[track], span{
		layer: l, parent: t.open[track], op: int32(op), start: int64(time.Since(t.epoch)),
	})
	t.open[track] = idx
	return idx
}

func (t *tracer) end(track int, idx int32) {
	if t == nil {
		return
	}
	s := &t.tracks[track][idx]
	s.end = int64(time.Since(t.epoch))
	t.open[track] = s.parent
}

// LayerSummary is one layer's share of a traced run.
type LayerSummary struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is total time minus the part child spans cover.
	SelfMs float64 `json:"self_ms"`
	// SelfShare is self time over the wall time of the tracks the layer ran
	// on (workers × traced wall).
	SelfShare float64 `json:"self_share"`
}

// layerTotals accumulates span statistics across traced passes.
type layerTotals struct {
	spans [numLayers]int
	total [numLayers]int64
	self  [numLayers]int64
	// covered is the time inside outermost non-structural spans on the
	// worker tracks; trackWall the wall time those tracks had.
	covered   int64
	trackWall int64
}

// add folds the tracer's current spans in. workers is how many leading
// tracks carry the mapping work; wall is the traced pass's wall time.
func (a *layerTotals) add(t *tracer, workers int, wall time.Duration) {
	for track, spans := range t.tracks {
		childTime := make([]int64, len(spans))
		for i := range spans {
			s := &spans[i]
			d := s.end - s.start
			a.spans[s.layer]++
			a.total[s.layer] += d
			if s.parent >= 0 {
				childTime[s.parent] += d
			}
			if track < workers && !s.layer.structural() && (s.parent < 0 || spans[s.parent].layer.structural()) {
				a.covered += d
			}
		}
		for i := range spans {
			a.self[spans[i].layer] += spans[i].end - spans[i].start - childTime[i]
		}
	}
	a.trackWall += int64(wall) * int64(workers)
}

func (a *layerTotals) coverage() float64 {
	if a.trackWall == 0 {
		return 0
	}
	return float64(a.covered) / float64(a.trackWall)
}

func (a *layerTotals) summaries() []LayerSummary {
	var out []LayerSummary
	for l := layer(0); l < numLayers; l++ {
		if a.spans[l] == 0 {
			continue
		}
		s := LayerSummary{
			Name: layerNames[l], Spans: a.spans[l],
			TotalMs: float64(a.total[l]) / 1e6, SelfMs: float64(a.self[l]) / 1e6,
		}
		if a.trackWall > 0 {
			s.SelfShare = float64(a.self[l]) / float64(a.trackWall)
		}
		out = append(out, s)
	}
	return out
}

// traceEvent is one span as written to trace.json.
type traceEvent struct {
	Name    string `json:"name"`
	Track   int    `json:"track"`
	Op      int32  `json:"op"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes the tracer's current spans as one JSON array. Parent is
// an index into the same track's spans, in file order.
func (t *tracer) writeTrace(path string) error {
	var events []traceEvent
	for track, spans := range t.tracks {
		for _, s := range spans {
			events = append(events, traceEvent{
				Name: layerNames[s.layer], Track: track, Op: s.op, Parent: s.parent, StartNs: s.start, EndNs: s.end,
			})
		}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
