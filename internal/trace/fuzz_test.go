package trace

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent throws arbitrary header values at the one parser that
// reads a client-chosen header on every /map request. It must never panic,
// and an ID it accepts is never the untraced zero, is the header's trace-id
// field, and survives the trip back through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(Traceparent(ID{Hi: 0x4bf92f3577b34da6, Lo: 0xa3ce929d0e0e4736}))
	f.Add("")
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			if id != (ID{}) {
				t.Fatalf("ParseTraceparent(%q) refused the header but returned %v", h, id)
			}
			return
		}
		if id.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted the zero ID", h)
		}
		if got, want := id.String(), strings.ToLower(h[3:35]); got != want {
			t.Fatalf("ParseTraceparent(%q) = %s, the header's trace-id field is %s", h, got, want)
		}
		if back, ok := ParseTraceparent(Traceparent(id)); !ok || back != id {
			t.Fatalf("%v does not survive Traceparent: %v, %v", id, back, ok)
		}
	})
}
