package serve

// This file is the /map wire codec: a hand-written decoder and encoder over
// the schema the exported wire structs declare (MapRequest, MapResponse and
// their parts). encoding/json stays the reference — the structs are what
// clients and the tests marshal with, and the differential tests hold the two
// to the same verdicts and the same bytes — but the request path itself never
// reflects and builds no per-read garbage: the decoder writes straight into a
// reqScratch, the encoder renders straight from the mapper's extensions.
// DESIGN §7 "Wire codec and request arena" states the grammar and the
// contract.

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/seeds"
	"repro/internal/trace"
)

// Decoder verdicts. The handler adds the body offset (reqScratch.pos) and, for
// errBadBase, the read; errTooManyReads is the only one answered 413.
var (
	errSyntax       = errors.New("invalid JSON")
	errDepth        = errors.New("JSON nested deeper than 10000 levels")
	errType         = errors.New("a member has the wrong JSON type for its field")
	errDuplicate    = errors.New("a member name is repeated")
	errNoReads      = errors.New("no reads")
	errTooManyReads = errors.New("too many reads")
	errBadBase      = dna.ErrInvalidBase
)

// maxDepth is encoding/json's nesting limit, kept so the two decoders reject
// the same documents.
const maxDepth = 10000

// The members of the request object and of one read, in the order their
// duplicate bits are numbered.
var (
	requestMembers = []string{"client", "deadline_ms", "reads"}
	readMembers    = []string{"name", "seq"}
)

const (
	memberClient = iota
	memberDeadline
	memberReads
)

const (
	memberName = iota
	memberSeq
)

// readSpan locates one decoded read: its name in reqScratch.text and its
// bases in reqScratch.bases.
type readSpan struct {
	nameLo, nameHi int
	seqLo, seqHi   int
}

// decode parses sc.body as a MapRequest into sc: the client and every read
// name unescaped back to back in sc.text, every sequence as base codes in
// sc.bases, one readSpan per read, the deadline in sc.deadlineMs. It accepts
// exactly the documents json.Unmarshal(&MapRequest) accepts — any member
// order, case-folded member names, null for any member or read, unknown
// members of any shape skipped but syntax-checked, invalid UTF-8 coerced to
// U+FFFD — and holds the values to the server's own rules as it goes: a
// non-ACGT base fails the request at that byte, the read after maxReads fails
// it before that read is looked at, a request without reads fails at the end.
// The one deliberate divergence: a member name that repeats within its object
// is rejected where encoding/json would let the last one win. On failure
// sc.pos is the offset of the offending byte.
//
//minigiraffe:hot
func (sc *reqScratch) decode(maxReads int) error {
	sc.src, sc.pos = sc.body.Bytes(), 0
	sc.text, sc.reads = sc.text[:0], sc.reads[:0]
	// Every base takes at least one body byte, so this capacity is final and
	// the sequence loop stores by index.
	if cap(sc.bases) < len(sc.src) {
		sc.bases = make([]dna.Base, 0, len(sc.src))
	}
	sc.bases = sc.bases[:0]
	sc.clientLo, sc.clientHi, sc.deadlineMs = 0, 0, 0

	sc.skipSpace()
	if sc.peek() != '{' {
		// Nothing but an object (or a top-level null, which has no reads)
		// unmarshals into the request struct.
		return sc.errValue()
	}
	var seen uint
	for first := true; ; first = false {
		if more, err := sc.more('}', first); err != nil {
			return err
		} else if !more {
			break
		}
		m, err := sc.member(requestMembers, &seen)
		if err != nil {
			return err
		}
		switch {
		case m < 0:
			err = sc.skipValue(1)
		case sc.null(): // leaves the field at its zero value
		case m == memberClient:
			sc.clientLo = len(sc.text)
			err = sc.decodeText()
			sc.clientHi = len(sc.text)
		case m == memberDeadline:
			sc.deadlineMs, err = sc.decodeInt()
		default:
			err = sc.decodeReads(maxReads)
		}
		if err != nil {
			return err
		}
	}
	sc.skipSpace()
	if sc.pos != len(sc.src) {
		return errSyntax
	}
	if len(sc.reads) == 0 {
		return errNoReads
	}
	return nil
}

// more steps to the next item of the container that opened at the cursor
// (first) or whose previous item ended there, and reports whether there is
// one: it consumes the opening bracket, the comma between items, or the
// closing bracket.
func (sc *reqScratch) more(closer byte, first bool) (bool, error) {
	if first {
		sc.pos++
	}
	sc.skipSpace()
	switch c := sc.peek(); {
	case c == closer:
		sc.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		sc.pos++
		sc.skipSpace()
		return true, nil // a closing bracket here is no item: its parser says so
	}
	return false, errSyntax
}

// decodeReads decodes the value of "reads": an array of read objects and
// nulls.
//
//minigiraffe:hot
func (sc *reqScratch) decodeReads(maxReads int) error {
	if sc.peek() != '[' {
		return sc.errValue()
	}
	for first := true; ; first = false {
		if more, err := sc.more(']', first); err != nil || !more {
			return err
		}
		if len(sc.reads) == maxReads {
			return errTooManyReads
		}
		if err := sc.decodeRead(); err != nil {
			return err
		}
	}
}

// decodeRead decodes one element of "reads" and records its span. A null
// element is the zero WireRead, as for encoding/json: an unnamed, empty read.
//
//minigiraffe:hot
func (sc *reqScratch) decodeRead() error {
	sp := readSpan{nameLo: len(sc.text), nameHi: len(sc.text), seqLo: len(sc.bases), seqHi: len(sc.bases)}
	if !sc.null() {
		if sc.peek() != '{' {
			return sc.errValue()
		}
		var seen uint
		for first := true; ; first = false {
			if more, err := sc.more('}', first); err != nil {
				return err
			} else if !more {
				break
			}
			m, err := sc.member(readMembers, &seen)
			if err != nil {
				return err
			}
			switch {
			case m < 0:
				err = sc.skipValue(3)
			case sc.null(): // leaves the field at its zero value
			case m == memberName:
				sp.nameLo = len(sc.text)
				err = sc.decodeText()
				sp.nameHi = len(sc.text)
			default:
				sp.seqLo = len(sc.bases)
				err = sc.decodeBases()
				sp.seqHi = len(sc.bases)
			}
			if err != nil {
				return err
			}
		}
	}
	sc.reads = append(sc.reads, sp)
	return nil
}

// peek returns the byte at the cursor, 0 at the end of the body (which no
// production accepts).
func (sc *reqScratch) peek() byte {
	if sc.pos < len(sc.src) {
		return sc.src[sc.pos]
	}
	return 0
}

func (sc *reqScratch) skipSpace() {
	for sc.pos < len(sc.src) {
		switch sc.src[sc.pos] {
		case ' ', '\t', '\r', '\n':
			sc.pos++
		default:
			return
		}
	}
}

// errValue classifies a value that is not what its field takes: the wrong
// JSON type if a value starts here at all, a syntax error otherwise. Both are
// answered 400 without reading on, as nothing after it can make the request
// acceptable.
func (sc *reqScratch) errValue() error {
	switch c := sc.peek(); {
	case c == '{', c == '[', c == '"', c == '-', '0' <= c && c <= '9', c == 't', c == 'f', c == 'n':
		return errType
	}
	return errSyntax
}

// null consumes a null literal at the cursor and reports whether there was
// one. What follows the literal is the caller's to check, as after any value.
func (sc *reqScratch) null() bool {
	if sc.literal("null") {
		sc.pos += len("null")
		return true
	}
	return false
}

func (sc *reqScratch) literal(lit string) bool {
	return len(sc.src)-sc.pos >= len(lit) && string(sc.src[sc.pos:sc.pos+len(lit)]) == lit
}

// member reads `"name" :` up to the start of the value and returns the index
// in names the member spells, -1 for one the schema does not know. Names
// match as encoding/json matches them: exactly, or else under Unicode simple
// case folding of the unescaped name. A known name already in *seen is
// errDuplicate.
func (sc *reqScratch) member(names []string, seen *uint) (int, error) {
	if sc.peek() != '"' {
		return 0, errSyntax
	}
	// The name is unescaped onto the end of text and cut off again.
	mark := len(sc.text)
	if err := sc.decodeText(); err != nil {
		return 0, err
	}
	m := memberIndex(sc.text[mark:], names)
	sc.text = sc.text[:mark]
	sc.skipSpace()
	if sc.peek() != ':' {
		return 0, errSyntax
	}
	sc.pos++
	sc.skipSpace()
	if m >= 0 {
		if *seen&(1<<uint(m)) != 0 {
			return 0, errDuplicate
		}
		*seen |= 1 << uint(m)
	}
	return m, nil
}

func memberIndex(name []byte, names []string) int {
	for i, n := range names {
		if string(name) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(name, []byte(n)) {
			return i
		}
	}
	return -1
}

// decodeText decodes the JSON string at the cursor onto the end of sc.text. The
// common string — printable ASCII, no escapes — is one copy; anything else
// goes through unquote.
//
//minigiraffe:hot
func (sc *reqScratch) decodeText() error {
	if sc.peek() != '"' {
		return sc.errValue()
	}
	src, i := sc.src, sc.pos+1
	for i < len(src) && src[i] >= ' ' && src[i] < utf8.RuneSelf && src[i] != '"' && src[i] != '\\' {
		i++
	}
	if i < len(src) && src[i] == '"' {
		sc.text = append(sc.text, src[sc.pos+1:i]...)
		sc.pos = i + 1
		return nil
	}
	var ok bool
	sc.text, sc.pos, ok = unquote(sc.text, src, sc.pos+1)
	if !ok {
		return errSyntax
	}
	return nil
}

// unquote appends the string whose body starts at src[i] to dst, unescaped
// and coerced to valid UTF-8 the way encoding/json does it (each invalid
// byte and each unpaired surrogate escape becomes U+FFFD), and returns the
// offset after the closing quote. Not ok: an unterminated string, a control
// byte or a bad escape, with the offset of the fault.
func unquote(dst, src []byte, i int) ([]byte, int, bool) {
	for i < len(src) {
		switch c := src[i]; {
		case c == '"':
			return dst, i + 1, true
		case c == '\\':
			r, n := unescape(src[i:])
			if n == 0 {
				return dst, i, false
			}
			dst = utf8.AppendRune(dst, r)
			i += n
		case c < ' ':
			return dst, i, false
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(src[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst, i, false
}

// unescape decodes the escape sequence that starts s (s[0] is the backslash)
// and returns the rune and the bytes consumed, 0 when it is malformed. A
// surrogate pair is consumed whole; half of one is U+FFFD.
func unescape(s []byte) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(s)
		if r < 0 {
			return 0, 0
		}
		if utf16.IsSurrogate(r) {
			if dec := utf16.DecodeRune(r, hex4(s[6:])); dec != utf8.RuneError {
				return dec, 12
			}
			r = utf8.RuneError
		}
		return r, 6
	}
	return 0, 0
}

// hex4 decodes a \uXXXX escape at the start of s, -1 when there is none.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// decodeBases decodes the JSON string at the cursor as a read's bases onto the
// end of sc.bases, whose capacity decode made final. Any character that is
// not a base — spelled raw or as an escape — is errBadBase at its offset.
//
//minigiraffe:hot
func (sc *reqScratch) decodeBases() error {
	if sc.peek() != '"' {
		return sc.errValue()
	}
	src := sc.src
	dst := sc.bases[:cap(sc.bases)]
	w := len(sc.bases)
	for i := sc.pos + 1; i < len(src); i++ {
		c := src[i]
		if c == '"' {
			sc.bases, sc.pos = dst[:w], i+1
			return nil
		}
		if c == '\\' {
			r, n := unescape(src[i:])
			if n == 0 {
				sc.pos = i
				return errSyntax
			}
			if r >= utf8.RuneSelf {
				sc.pos = i
				return errBadBase
			}
			c = byte(r)
			i += n - 1
		} else if c < ' ' {
			sc.pos = i
			return errSyntax
		}
		b, ok := dna.BaseFromChar(c)
		if !ok {
			sc.pos = i
			return errBadBase
		}
		dst[w] = b
		w++
	}
	sc.pos = len(src)
	return errSyntax
}

// decodeInt decodes the JSON number at the cursor as an int64. A number with a
// fraction or an exponent, or out of range, is errType, as it is for
// encoding/json.
func (sc *reqScratch) decodeInt() (int64, error) {
	start := sc.pos
	if !sc.number() {
		return 0, sc.errValue()
	}
	v, err := strconv.ParseInt(string(sc.src[start:sc.pos]), 10, 64)
	if err != nil {
		sc.pos = start
		return 0, errType
	}
	return v, nil
}

// number consumes a number of the JSON grammar at the cursor and reports
// whether there was one.
func (sc *reqScratch) number() bool {
	src, i := sc.src, sc.pos
	if i < len(src) && src[i] == '-' {
		i++
	}
	if i < len(src) && src[i] == '0' {
		i++
	} else if i = skipDigits(src, i); i < 0 {
		return false
	}
	if i < len(src) && src[i] == '.' {
		if i = skipDigits(src, i+1); i < 0 {
			return false
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		i++
		if i < len(src) && (src[i] == '+' || src[i] == '-') {
			i++
		}
		if i = skipDigits(src, i); i < 0 {
			return false
		}
	}
	sc.pos = i
	return true
}

// skipDigits returns the offset after the run of digits at src[i], -1 when
// there is not even one.
func skipDigits(src []byte, i int) int {
	j := i
	for j < len(src) && '0' <= src[j] && src[j] <= '9' {
		j++
	}
	if j == i {
		return -1
	}
	return j
}

// skipValue consumes any one JSON value at the cursor, checking its syntax
// and nothing else: the value of a member the schema does not know. depth is
// the nesting of the enclosing container.
func (sc *reqScratch) skipValue(depth int) error {
	switch c := sc.peek(); {
	case c == '"':
		var ok bool
		mark := len(sc.text)
		sc.text, sc.pos, ok = unquote(sc.text, sc.src, sc.pos+1)
		sc.text = sc.text[:mark]
		if !ok {
			return errSyntax
		}
		return nil
	case c == '-' || '0' <= c && c <= '9':
		if !sc.number() {
			return errSyntax
		}
		return nil
	case c == '{' || c == '[':
		return sc.skipContainer(depth + 1)
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if sc.literal(lit) {
			sc.pos += len(lit)
			return nil
		}
	}
	return errSyntax
}

// skipContainer consumes the object or array that opens at the cursor and
// nests depth deep.
func (sc *reqScratch) skipContainer(depth int) error {
	if depth > maxDepth {
		return errDepth
	}
	object, closer := sc.src[sc.pos] == '{', byte(']')
	if object {
		closer = '}'
	}
	for first := true; ; first = false {
		if more, err := sc.more(closer, first); err != nil || !more {
			return err
		}
		if object {
			var none uint
			if _, err := sc.member(nil, &none); err != nil {
				return err
			}
		}
		if err := sc.skipValue(depth); err != nil {
			return err
		}
	}
}

// appendMapResponse appends the /map success body for recs and their
// extensions to dst: byte for byte what json.NewEncoder(w).Encode of the
// MapResponse built from the same values writes, trailing newline included.
//
//minigiraffe:hot
func appendMapResponse(dst []byte, id trace.ID, client string, serviceMs float64, recs []seeds.ReadSeeds, exts [][]extend.Extension) []byte {
	total := 0
	for _, es := range exts {
		total += len(es)
	}
	dst = append(dst, `{"trace_id":"`...)
	if !id.IsZero() {
		dst = id.AppendHex(dst)
	}
	dst = append(dst, `","client":`...)
	dst = appendString(dst, client)
	dst = append(dst, `,"reads":`...)
	dst = strconv.AppendInt(dst, int64(len(recs)), 10)
	dst = append(dst, `,"extensions":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	dst = append(dst, `,"service_ms":`...)
	dst = appendFloat(dst, serviceMs)
	dst = append(dst, `,"results":[`...)
	for i := range recs {
		dst = appendResult(dst, recs[i].Read.Name, exts[i])
	}
	dst = endList(dst)
	return append(dst, "}\n"...)
}

// appendResult appends one WireResult and the comma after it (endList turns
// the last one into the closing bracket).
//
//minigiraffe:hot
func appendResult(dst []byte, read string, exts []extend.Extension) []byte {
	dst = append(dst, `{"read":`...)
	dst = appendString(dst, read)
	dst = append(dst, `,"extensions":[`...)
	for i := range exts {
		dst = appendExtension(dst, &exts[i])
	}
	dst = endList(dst)
	return append(dst, "},"...)
}

// appendExtension appends one WireExtension and the comma after it.
//
//minigiraffe:hot
func appendExtension(dst []byte, e *extend.Extension) []byte {
	dst = append(dst, `{"node":`...)
	dst = strconv.AppendUint(dst, uint64(e.StartPos.Node), 10)
	dst = append(dst, `,"offset":`...)
	dst = strconv.AppendInt(dst, int64(e.StartPos.Off), 10)
	if e.Rev {
		dst = append(dst, `,"strand":"-","read_start":`...)
	} else {
		dst = append(dst, `,"strand":"+","read_start":`...)
	}
	dst = strconv.AppendInt(dst, int64(e.ReadStart), 10)
	dst = append(dst, `,"read_end":`...)
	dst = strconv.AppendInt(dst, int64(e.ReadEnd), 10)
	dst = append(dst, `,"score":`...)
	dst = strconv.AppendInt(dst, int64(e.Score), 10)
	if len(e.Mismatches) > 0 { // omitempty
		dst = append(dst, `,"mismatches":[`...)
		for _, m := range e.Mismatches {
			dst = appendIntItem(dst, m)
		}
		dst = endList(dst)
	}
	return append(dst, "},"...)
}

func appendIntItem(dst []byte, v int32) []byte {
	return append(strconv.AppendInt(dst, int64(v), 10), ',')
}

// endList closes an array whose items were each written with a comma after
// them; an empty one still ends in its opening bracket.
func endList(dst []byte) []byte {
	if dst[len(dst)-1] == ',' {
		dst[len(dst)-1] = ']'
		return dst
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string the way encoding/json writes one
// with HTML escaping on: ", \, control bytes, <, > and & escaped, U+2028 and
// U+2029 escaped, each byte of invalid UTF-8 written as the escape \ufffd.
//
//minigiraffe:hot
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' || c >= utf8.RuneSelf {
			return appendEscaped(dst, s)
		}
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendEscaped is appendString past its opening quote, for a string that
// needs more than copying.
func appendEscaped(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && n == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + n
			case r == '\u2028' || r == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
				start = i + n
			}
			i += n
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch c {
		case '"', '\\':
			dst = append(dst, '\\', c)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends a finite f by encoding/json's rule for a float64: the
// shortest digits that round-trip, in exponent form below 1e-6 and from 1e21
// up, with a two-digit negative exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
