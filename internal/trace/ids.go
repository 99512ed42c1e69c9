package trace

// This file is the request-identity half of the tracing layer: a 128-bit
// trace ID and its W3C traceparent wire form. The serving path threads one ID
// per request from cmd/loadgen through internal/serve into the mapping
// session and the slow-read exemplars, so a p99 spike seen client-side can be
// joined to the exact queue-wait and kernel spans that produced it. The ID is
// a value type (two words, no pointers) so carrying it through hot structs
// (obs.Exemplar, obs.SubBatch) allocates nothing.

// TraceparentHeader is the propagation header the serving path reads and
// writes: the W3C Trace Context header name, in the canonical form net/http
// keys its header maps by and puts on the wire whatever case it is given —
// spelled lower-case here, every Get and Set would allocate the conversion.
const TraceparentHeader = "Traceparent"

// ID is a 128-bit request trace identifier. The zero ID means "untraced";
// generators must never produce it.
type ID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the untraced sentinel.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

// String renders the canonical 32-hex-digit form (lowercase, zero-padded),
// the same bytes that appear inside the traceparent header.
func (id ID) String() string {
	var b [32]byte
	return string(id.AppendHex(b[:0]))
}

// AppendHex appends the 32 hex digits of String to dst: the form for callers
// that render into a buffer they own (the /map response encoder).
func (id ID) AppendHex(dst []byte) []byte {
	return appendHex(appendHex(dst, id.Hi), id.Lo)
}

// MarshalJSON encodes the ID as its hex string; the zero ID encodes as ""
// so untraced records (batch-mode exemplars) stay visibly unattributed.
func (id ID) MarshalJSON() ([]byte, error) {
	if id.IsZero() {
		return []byte(`""`), nil
	}
	b := make([]byte, 0, 34)
	b = append(b, '"')
	b = id.AppendHex(b)
	return append(b, '"'), nil
}

// UnmarshalJSON parses the hex-string form ("" -> zero ID).
func (id *ID) UnmarshalJSON(data []byte) error {
	if len(data) == 2 && data[0] == '"' && data[1] == '"' {
		*id = ID{}
		return nil
	}
	if len(data) != 34 || data[0] != '"' || data[33] != '"' {
		return errBadID
	}
	hi, ok1 := parseHex(data[1:17])
	lo, ok2 := parseHex(data[17:33])
	if !ok1 || !ok2 {
		return errBadID
	}
	*id = ID{Hi: hi, Lo: lo}
	return nil
}

type idError string

func (e idError) Error() string { return string(e) }

const errBadID = idError("trace: malformed trace ID")

// Traceparent renders the full header value: version 00, the trace ID, a
// non-zero parent span ID derived from the trace ID, and the sampled flag.
// The serving path samples tail-based server-side, so the client-side flag is
// always 01 (the client has no grounds to pre-filter).
func Traceparent(id ID) string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = id.AppendHex(b)
	b = append(b, '-')
	b = appendHex(b, spanFrom(id))
	return string(append(b, "-01"...))
}

// spanFrom derives a non-zero parent span ID from the trace ID (the span ID
// field must not be all-zero per the header grammar).
func spanFrom(id ID) uint64 {
	s := id.Hi ^ id.Lo
	if s == 0 {
		s = 1
	}
	return s
}

// ParseTraceparent extracts the trace ID from a traceparent header value.
// It accepts any version byte and ignores the span ID and flags — the server
// only needs the request identity. Malformed or all-zero IDs return ok=false
// so the caller can fall back to generating its own.
func ParseTraceparent(h string) (ID, bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return ID{}, false
	}
	hi, ok1 := parseHex([]byte(h[3:19]))
	lo, ok2 := parseHex([]byte(h[19:35]))
	if !ok1 || !ok2 {
		return ID{}, false
	}
	id := ID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return ID{}, false
	}
	return id, true
}

const hexDigits = "0123456789abcdef"

// appendHex appends v as 16 lowercase hex digits.
func appendHex(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[v>>uint(shift)&0xf])
	}
	return dst
}

// parseHex reads exactly 16 lowercase-or-uppercase hex digits.
func parseHex(src []byte) (uint64, bool) {
	var v uint64
	for _, c := range src {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}
