package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dna"
	"repro/internal/extend"
	"repro/internal/seeds"
	"repro/internal/trace"
	"repro/internal/vgraph"
)

// referenceEncoding is the /map success body as the server wrote it before
// the hand encoder: the wire structs, filled the same way, through
// encoding/json.
func referenceEncoding(t testing.TB, id trace.ID, client string, serviceMs float64, recs []seeds.ReadSeeds, exts [][]extend.Extension) []byte {
	t.Helper()
	resp := MapResponse{TraceID: id, Client: client, Reads: len(recs), ServiceMs: serviceMs, Results: make([]WireResult, len(recs))}
	for i := range recs {
		wes := make([]WireExtension, len(exts[i]))
		for j, e := range exts[i] {
			strand := "+"
			if e.Rev {
				strand = "-"
			}
			wes[j] = WireExtension{
				Node: uint32(e.StartPos.Node), Offset: e.StartPos.Off, Strand: strand,
				ReadStart: e.ReadStart, ReadEnd: e.ReadEnd, Score: e.Score, Mismatches: e.Mismatches,
			}
		}
		resp.Results[i] = WireResult{Read: recs[i].Read.Name, Extensions: wes}
		resp.Extensions += len(wes)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func namedRecs(names ...string) []seeds.ReadSeeds {
	recs := make([]seeds.ReadSeeds, len(names))
	for i, n := range names {
		recs[i].Read.Name = n
	}
	return recs
}

// TestEncodeMatchesEncodingJSON holds the hand encoder to its contract: the
// bytes encoding/json writes for the same response, for every string, number
// and shape the schema can carry.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	check := func(t *testing.T, id trace.ID, client string, serviceMs float64, recs []seeds.ReadSeeds, exts [][]extend.Extension) bool {
		t.Helper()
		want := referenceEncoding(t, id, client, serviceMs, recs, exts)
		// A dirty prefix: the encoder appends, it does not own dst.
		got := appendMapResponse([]byte("xx"), id, client, serviceMs, recs, exts)[2:]
		if !bytes.Equal(got, want) {
			t.Errorf("hand encoder:\n%s\nencoding/json:\n%s", got, want)
			return false
		}
		return true
	}

	ext := extend.Extension{StartPos: vgraph.Position{Node: 3206, Off: 2}, ReadStart: 0, ReadEnd: 148, Score: 158}
	rev := extend.Extension{StartPos: vgraph.Position{Node: math.MaxUint32, Off: math.MinInt32}, ReadStart: -1, ReadEnd: math.MaxInt32, Score: -7, Rev: true}
	withMis := ext
	withMis.Mismatches = []int32{3, 0, -2, math.MaxInt32}
	emptyMis := ext
	emptyMis.Mismatches = []int32{}

	t.Run("strings", func(t *testing.T) {
		for _, s := range []string{
			"", "r1", "SRR4074257.17/1", `quote"back\slash`, "<script>&amp;</script>",
			"tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f", "line\u2028para\u2029end", "é世界😀",
			"bad\xffutf8\xc3", "\xe2\x80", "trailing\xf0\x9f\x98", strings.Repeat("n", 300) + "&",
		} {
			check(t, trace.ID{Hi: 1, Lo: 2}, s, 1, namedRecs(s, "plain"), [][]extend.Extension{{ext}, nil})
		}
	})
	t.Run("shapes", func(t *testing.T) {
		for _, exts := range [][][]extend.Extension{
			{nil},
			{{}},
			{{ext}},
			{{ext, rev, withMis, emptyMis}},
			{{withMis}, nil, {rev, rev}},
		} {
			names := []string{"a", "b", "c"}[:len(exts)]
			check(t, trace.ID{Hi: 0xfeed, Lo: 0xbeef}, "anon", 0.25, namedRecs(names...), exts)
		}
	})
	t.Run("service_ms", func(t *testing.T) {
		for _, ms := range []float64{
			0, 5e-324, 1e-7, 9.99e-7, 9.999999999e-7, 1e-6, 1.5e-6, 0.000123, 0.282418, 1, 1.5, 100, 123456789.125,
			1e20, 9.99e20, 1e21, 1.2345e25, math.MaxFloat64, -1.5e-9, -2.5,
		} {
			check(t, trace.ID{Lo: 1}, "c", ms, namedRecs("r"), [][]extend.Extension{{ext}})
		}
	})
	t.Run("trace ids", func(t *testing.T) {
		for _, id := range []trace.ID{{}, {Lo: 1}, {Hi: 1}, {Hi: math.MaxUint64, Lo: math.MaxUint64}, {Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}} {
			check(t, id, "c", 1, namedRecs("r"), [][]extend.Extension{{ext}})
		}
	})
	t.Run("quick", func(t *testing.T) {
		f := func(hi, lo uint64, client, name string, raw []byte, serviceMs float64, node uint32, off, start, end, score int32, revStrand bool, mis []int32, n uint8) bool {
			e := extend.Extension{
				StartPos:  vgraph.Position{Node: vgraph.NodeID(node), Off: off},
				ReadStart: start, ReadEnd: end, Score: score, Rev: revStrand, Mismatches: mis,
			}
			// raw is arbitrary bytes, so mostly invalid UTF-8.
			recs := namedRecs(name, string(raw), client)
			exts := [][]extend.Extension{make([]extend.Extension, n%5), {e}, nil}
			for i := range exts[0] {
				exts[0][i] = e
			}
			return check(t, trace.ID{Hi: hi, Lo: lo}, client, serviceMs, recs, exts)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error(err)
		}
	})
}

// checkDecode runs one body through the hand decoder and through
// json.Unmarshal(&MapRequest) plus the server's rules for the decoded value
// (at least one read, every sequence ACGT) and fails unless the two agree:
// accept or reject together and, on accept, the same client, deadline, names
// and bases. The one divergence let through is a body that repeats a member
// name, which the reference accepts and the hand decoder rejects.
func checkDecode(t testing.TB, body []byte) {
	t.Helper()
	sc := getScratch()
	defer putScratch(sc)
	sc.body.Write(body)
	err := sc.decode(math.MaxInt)

	var want MapRequest
	oracle := json.Unmarshal(body, &want)
	if oracle == nil && len(want.Reads) == 0 {
		oracle = errNoReads
	}
	wantSeqs := make([]dna.Sequence, len(want.Reads))
	for i := 0; oracle == nil && i < len(want.Reads); i++ {
		wantSeqs[i], oracle = dna.Parse(want.Reads[i].Seq)
	}

	switch {
	case err != nil && oracle != nil:
		return
	case err == nil && oracle != nil:
		t.Fatalf("hand decoder accepts %q, the reference rejects it: %v", body, oracle)
	case err != nil:
		if repeatsMember(body) {
			// Last one wins for the reference; the hand decoder refuses the
			// repeat, or whatever the overridden value already did wrong.
			return
		}
		t.Fatalf("hand decoder rejects %q at offset %d (%v), the reference accepts it", body, sc.pos, err)
	}
	text := string(sc.text)
	if got := text[sc.clientLo:sc.clientHi]; got != want.Client {
		t.Fatalf("%q: client %q, want %q", body, got, want.Client)
	}
	if sc.deadlineMs != want.DeadlineMs {
		t.Fatalf("%q: deadline_ms %d, want %d", body, sc.deadlineMs, want.DeadlineMs)
	}
	if len(sc.reads) != len(want.Reads) {
		t.Fatalf("%q: %d reads, want %d", body, len(sc.reads), len(want.Reads))
	}
	for i, sp := range sc.reads {
		if got := text[sp.nameLo:sp.nameHi]; got != want.Reads[i].Name {
			t.Fatalf("%q: read %d is named %q, want %q", body, i, got, want.Reads[i].Name)
		}
		if got := dna.Sequence(sc.bases[sp.seqLo:sp.seqHi]); !got.Equal(wantSeqs[i]) {
			t.Fatalf("%q: read %d has bases %v, want %v", body, i, got, wantSeqs[i])
		}
	}
}

// repeatsMember reports whether body — a document json.Unmarshal accepts —
// spells a member of the request object, or of one read, more than once.
// It walks encoding/json's own token stream, so it shares nothing with the
// decoder under test.
func repeatsMember(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return false
	}
	repeated := false
	// object walks the members of the object just opened, counting names
	// against known, and calls visit with the index of each known member
	// before its value is consumed; visit reports whether it consumed it.
	object := func(known []string, visit func(member int) bool) {
		seen := make([]bool, len(known))
		for dec.More() {
			key, _ := dec.Token()
			member := -1
			for i, n := range known {
				if strings.EqualFold(key.(string), n) {
					member = i
				}
			}
			if member >= 0 {
				repeated = repeated || seen[member]
				seen[member] = true
			}
			if member < 0 || !visit(member) {
				var skipped json.RawMessage
				_ = dec.Decode(&skipped)
			}
		}
		_, _ = dec.Token() // the closing brace
	}
	object(requestMembers, func(member int) bool {
		if member != memberReads {
			return false
		}
		if tok, _ := dec.Token(); tok != json.Delim('[') {
			return true // null: a whole value, consumed
		}
		for dec.More() {
			if tok, _ := dec.Token(); tok == json.Delim('{') {
				object(readMembers, func(int) bool { return false })
			}
		}
		_, _ = dec.Token() // the closing bracket
		return true
	})
	return repeated
}

// decodeSeeds join the checked-in corpus (testdata/fuzz/FuzzDecodeMapRequest:
// a bench-shaped body, escapes, folded names, nulls, unknown members, repeats)
// as the fuzz target's seeds, which every plain `go test` runs too: the wrong
// types, the deadline spellings, the broken documents and the nesting limits.
var decodeSeeds = [][]byte{
	[]byte(`{"reads":[{"name":"r","seq":"ACG\/T"}]}`),
	[]byte(`{"reads":[{"name":"r","seq":"ACG\ud83d\ude00"}]}`),
	[]byte(`{"reads":[{"name":"r","seq":"ACG` + "\xff" + `"}]}`),
	[]byte(`{"reads":null}`),
	[]byte(`null`),
	[]byte(`{"client":5,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"reads":{"name":"r","seq":"A"}}`),
	[]byte(`{"reads":[["r","A"]]}`),
	[]byte(`{"reads":[{"name":7,"seq":"A"}]}`),
	[]byte(`{"reads":[{"name":"r","seq":["A"]}]}`),
	[]byte(`{"deadline_ms":"5","reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"deadline_ms":-0,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"deadline_ms":1.5,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"deadline_ms":1e3,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"deadline_ms":9223372036854775807,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"deadline_ms":-9223372036854775808,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"deadline_ms":9223372036854775808,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"deadline_ms":01,"reads":[{"name":"r","seq":"A"}]}`),
	[]byte(`{"client":"a","reads":[{"name":"r","seq":"A"}],"Client":null}`),
	[]byte(`{"x":1,"x":2,"reads":[{"name":"r","seq":"A","y":{"k":1,"k":2},"y":3}]}`),
	[]byte(``), []byte(`{`), []byte(`{"reads":[{"name":"r","seq":"A"}]`), []byte(`{"reads":[{"name":"r","seq":"A"}]}}`),
	[]byte(`{"reads":[{"name":"r","seq":"A"},]}`), []byte(`{"reads":[{"name":"r","seq":"A",}]}`), []byte(`{,}`),
	[]byte(`{"reads":[{"name":"r" "seq":"A"}]}`), []byte(`{"reads":[{"name":"a` + "\n" + `","seq":"A"}]}`),
	[]byte(`{"reads":[{"name":"\x41","seq":"A"}]}`), []byte(`{"reads":[{"name":"\u12g4","seq":"A"}]}`), []byte(`{"reads":[{"name":"\'","seq":"A"}]}`),
	[]byte(`{"reads":[{"name":"r","seq":"A"}],"k":tru}`), []byte(`{"reads":[{"name":"r","seq":"A"}],"k":nullx}`),
	[]byte(`{"reads":[{"name":"r","seq":"A"}],"k":1.}`), []byte(`{"reads":[{"name":"r","seq":"A"}],"k":-}`), []byte(`{"reads":[{"name":"r","seq":"A"}],"k":.5}`),
	[]byte(`{"reads":[{"name":"r","seq":"A"}],"k":1e}`), []byte(`{"reads":[{"name":"r","seq":"A"}],"k":+1}`), []byte(`{"reads":[{"name":"r","seq":"A"}],"k":[1 2]}`),
	[]byte("\xef\xbb\xbf" + `{"reads":[{"name":"r","seq":"A"}]}`), []byte(`{"reads":[{"name":"r","seq":"A"}]} x`), []byte(`[]`), []byte(`"reads"`), []byte(`7`),
	// Hostile nesting: refused at the first byte, or at encoding/json's limit.
	bytes.Repeat([]byte("["), 64<<10),
	append(append([]byte(`{"reads":[{"name":"r","seq":"A"}],"deep":`), nested(maxDepth-1)...), '}'),
	append(append([]byte(`{"reads":[{"name":"r","seq":"A"}],"deep":`), nested(maxDepth)...), '}'),
	append(append([]byte(`{"reads":[{"name":"r","seq":"A","deep":`), nested(maxDepth-3)...), []byte(`}]}`)...),
	append(append([]byte(`{"reads":[{"name":"r","seq":"A","deep":`), nested(maxDepth-2)...), []byte(`}]}`)...),
	append([]byte(`{"reads":[{"name":"r","seq":"A"}],"deep":`), bytes.Repeat([]byte(`{"a":`), 64<<10)...),
}

// nested returns n arrays inside one another.
func nested(n int) []byte {
	return append(bytes.Repeat([]byte("["), n), bytes.Repeat([]byte("]"), n)...)
}

// TestDecodeVerdicts pins what the differential check cannot see: which
// error a rejected document gets, and where the reads cap cuts in.
func TestDecodeVerdicts(t *testing.T) {
	three := `{"reads":[{"name":"a","seq":"A"},{"name":"b","seq":"C"},{"name":"c","seq":"G"}`
	for _, tc := range []struct {
		body     string
		maxReads int
		want     error
	}{
		{three + `]}`, 3, nil},
		{three + `]}`, 2, errTooManyReads},
		{three + `,{{{ not json`, 3, errTooManyReads}, // refused before the fourth read is looked at
		{three + `{{{ not json`, 3, errSyntax},
		{`{"reads":[]}`, 3, errNoReads},
		{`{}`, 3, errNoReads},
		{`{"reads":[{"name":"r","seq":"AXGT"}]}`, 3, errBadBase},
		{`{"reads":[{"name":"r","seq":"Aé"}]}`, 3, errBadBase},
		{`{"reads":[{"name":"r","seq":"A\n"}]}`, 3, errBadBase},
		{`{"reads":[{"name":"r","seq":"A"}],"Reads":null}`, 3, errDuplicate},
		{`{"reads":[{"seq":"A","name":"r","SEQ":"C"}]}`, 3, errDuplicate},
		{`{"client":["x"]}`, 3, errType},
		{`{"deadline_ms":1.5}`, 3, errType},
		{`[`, 3, errType},
		{`{"reads":[{"name":"r","seq":"A"}],"deep":` + string(nested(maxDepth)) + `}`, 3, errDepth},
		{`{"reads":[{"name":"r","seq":"A"}]}` + "\x00", 3, errSyntax},
	} {
		sc := getScratch()
		sc.body.WriteString(tc.body)
		if err := sc.decode(tc.maxReads); !errors.Is(err, tc.want) {
			t.Errorf("decode(%.80q, max %d reads) = %v, want %v", tc.body, tc.maxReads, err, tc.want)
		}
		putScratch(sc)
	}
}

// TestDecodeReusesScratch decodes different requests through one scratch and
// checks that nothing of an earlier one shows through.
func TestDecodeReusesScratch(t *testing.T) {
	sc := new(reqScratch)
	for _, body := range []string{
		`{"client":"first","deadline_ms":9,"reads":[{"name":"long-name-0","seq":"ACGTACGTACGT"},{"name":"long-name-1","seq":"TTTT"}]}`,
		`{"reads":[{"seq":"GG"}]}`,
		`{"reads":[{"name":"n"}]}`,
	} {
		sc.body.Reset()
		sc.body.WriteString(body)
		if err := sc.decode(8); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		var want MapRequest
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if got := string(sc.text[sc.clientLo:sc.clientHi]); got != want.Client || sc.deadlineMs != want.DeadlineMs || len(sc.reads) != len(want.Reads) {
			t.Fatalf("%s: client %q, deadline %d, %d reads", body, got, sc.deadlineMs, len(sc.reads))
		}
		for i, sp := range sc.reads {
			if name, seq := string(sc.text[sp.nameLo:sp.nameHi]), dna.Sequence(sc.bases[sp.seqLo:sp.seqHi]).String(); name != want.Reads[i].Name || seq != want.Reads[i].Seq {
				t.Fatalf("%s: read %d is %q %q", body, i, name, seq)
			}
		}
	}
}

// FuzzDecodeMapRequest is the differential fuzz of the one decoder that reads
// bytes straight off the network: see checkDecode for what must hold.
func FuzzDecodeMapRequest(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// TestWriteJSONEncodesBeforeCommitting: a value encoding/json refuses must
// come back as a 500 that says so, not as a committed status over an empty
// body.
func TestWriteJSONEncodesBeforeCommitting(t *testing.T) {
	s := &Server{}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, struct{ F float64 }{math.NaN()})
	body, _ := io.ReadAll(rec.Result().Body)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(string(body), "encoding response") ||
		strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("unencodable value: status %d, content type %q, body %q", rec.Code, rec.Header().Get("Content-Type"), body)
	}
	rec = httptest.NewRecorder()
	s.writeJSON(rec, http.StatusTeapot, errorBody{Error: "short & stout"})
	if rec.Code != http.StatusTeapot || rec.Body.String() != `{"error":"short \u0026 stout"}`+"\n" {
		t.Fatalf("encodable value: status %d, body %q", rec.Code, rec.Body.String())
	}
}
