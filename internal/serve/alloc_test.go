//go:build !race

package serve_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dna"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/seeds"
	"repro/internal/serve"
)

// discardWriter is a ResponseWriter that allocates nothing per request, so
// what the test counts is the handler's.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// TestMapAllocations bounds what one warm 8-read /map request allocates
// between the first byte of the body and the last byte of the response, with
// the kernels and the extractor stubbed out (the fake mapper's one slice per
// read is in the count). Of the 22 allowed, the mapper's 8 result slices and
// the context's deadline timer account for more than half; the codec's share
// is one string for the names. The reflective round trip this replaced took 86
// on the same request.
func TestMapAllocations(t *testing.T) {
	const reads, bound = 8, 22
	reg := obs.NewRegistry(2)
	sess, err := pipeline.NewSession(&fakeMapper{}, pipeline.Options{Workers: 1, BatchSize: 512, Depth: 4}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv, err := serve.New(serve.Config{
		Session: sess, Reg: reg, Traces: obs.NewReqTracer(1, 4, 4, nil),
		Extract: func(read *dna.Read) (seeds.ReadSeeds, error) { return seeds.ReadSeeds{Read: *read}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	body := bytes.NewReader(mapBody(t, reads))
	req := httptest.NewRequest(http.MethodPost, "/map", nil)
	req.Header.Set("X-Client", "alloc")
	req.Body = io.NopCloser(body)
	w := &discardWriter{header: make(http.Header)}
	got := testing.AllocsPerRun(200, func() {
		body.Seek(0, io.SeekStart) //nolint:errcheck
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("status %d, want 200", w.code)
		}
	})
	t.Logf("%.1f allocations per %d-read request", got, reads)
	if got > bound {
		t.Errorf("a warm %d-read /map request allocates %.1f objects, want at most %d", reads, got, bound)
	}
}
