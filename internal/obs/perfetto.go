package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/trace"
)

// traceEvent is one Chrome trace-event JSON object — the format Perfetto
// and chrome://tracing load. Complete events ("ph":"X") carry a start
// timestamp and duration in microseconds; metadata events ("ph":"M") name
// the threads.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoDoc is the one trace-event encoder both exporters convert onto: a
// document of named tracks (a process id plus a thread id), each a run of
// complete events, written as the JSON-object form of the format.
type perfettoDoc struct {
	events []traceEvent
}

// perfettoTrack adds events to one thread of a perfettoDoc.
type perfettoTrack struct {
	doc      *perfettoDoc
	pid, tid int
	cat      string
}

// track opens thread (pid, tid) under a display name; its events are filed
// under category cat.
func (d *perfettoDoc) track(pid, tid int, cat, name string) perfettoTrack {
	d.events = append(d.events, traceEvent{
		Name: "thread_name",
		Ph:   "M",
		Pid:  pid,
		Tid:  tid,
		Args: map[string]any{"name": name},
	})
	return perfettoTrack{doc: d, pid: pid, tid: tid, cat: cat}
}

// event adds one complete event; the format counts in microseconds.
func (t perfettoTrack) event(name string, startNanos, durNanos int64, args map[string]any) {
	t.doc.events = append(t.doc.events, traceEvent{
		Name: name,
		Cat:  t.cat,
		Ph:   "X",
		Ts:   float64(startNanos) / 1e3,
		Dur:  float64(durNanos) / 1e3,
		Pid:  t.pid,
		Tid:  t.tid,
		Args: args,
	})
}

// write encodes the document; one without events is still a valid trace.
func (d *perfettoDoc) write(w io.Writer) error {
	out := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{d.events, "ms"}
	if out.TraceEvents == nil {
		out.TraceEvents = []traceEvent{} // "[]", not "null"
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// perfettoPid is the single process id every span is filed under; the
// recorder's worker index becomes the thread id.
const perfettoPid = 1

// WritePerfettoTrace converts the recorder's spans to Chrome trace-event
// JSON, loadable in ui.perfetto.dev or chrome://tracing: one named thread
// per worker, one complete event per span, timestamps in microseconds from
// the recorder's epoch. Spans are exported in canonical sorted order
// (matching WriteTimelineCSV), so the same spans always produce the same
// bytes. A nil recorder writes an empty, still-valid trace.
func WritePerfettoTrace(w io.Writer, rec *trace.Recorder) error {
	var doc perfettoDoc
	if rec != nil {
		for worker := 0; worker < rec.Workers(); worker++ {
			spans := rec.SortedSpans(worker)
			if len(spans) == 0 {
				continue
			}
			track := doc.track(perfettoPid, worker, "minigiraffe", fmt.Sprintf("worker %d", worker))
			for _, s := range spans {
				track.event(s.Region, s.Start.Nanoseconds(), s.Dur.Nanoseconds(), nil)
			}
		}
	}
	return doc.write(w)
}

// perfettoReqPid files request tracks under their own process so the worker
// timeline (pid 1) and the request view of the same run load side by side.
const perfettoReqPid = 2

// WritePerfettoRequests converts sampled request traces to Chrome
// trace-event JSON: one named thread ("req <trace-id> <status>") per sampled
// request, one complete event per span. map_subbatch events carry the worker
// attribution and kernel decomposition in args, so clicking a slow span in
// ui.perfetto.dev shows where its time went. Snapshot order is deterministic,
// so the same snapshot always produces the same bytes.
func WritePerfettoRequests(w io.Writer, snap ReqTraceSnapshot) error {
	var doc perfettoDoc
	for tid, tr := range snap.Traces {
		track := doc.track(perfettoReqPid, tid, "request", fmt.Sprintf("req %s %d", tr.TraceID, tr.Status))
		for _, sp := range tr.Spans {
			args := map[string]any{"worker": sp.Worker}
			if sp.Canceled {
				args["canceled"] = true
			}
			if sp.Name == SpanMapSubbatch {
				args["cluster_ns"] = sp.ClusterNanos
				args["extend_ns"] = sp.ExtendNanos
				args["cache_build_ns"] = sp.CacheBuildNanos
			}
			track.event(sp.Name, sp.StartNanos, sp.DurNanos, args)
		}
	}
	return doc.write(w)
}
