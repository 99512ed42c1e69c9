package main

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/extend"
	"repro/internal/workload"
)

// smallInputs generates a few hundred A-human reads in memory.
func smallInputs(t *testing.T) (*workload.Bundle, *expected, [][]extend.Extension) {
	t.Helper()
	b, err := workload.Generate(workload.AHuman().Scaled(0.2))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	exp, ref, err := buildExpected(b.GBZ(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Invalid != 0 {
		t.Fatalf("reference pass at this commit breaks an invariant: %s", exp.Note)
	}
	return b, exp, ref
}

func cloneExtensions(ref [][]extend.Extension) [][]extend.Extension {
	out := make([][]extend.Extension, len(ref))
	for i := range ref {
		out[i] = append([]extend.Extension(nil), ref[i]...)
	}
	return out
}

func TestCheckerFlagsOneCorruptedExtension(t *testing.T) {
	b, exp, ref := smallInputs(t)
	if failed, _ := exp.diff(ref); failed != 0 {
		t.Fatalf("reference differs from itself on %d reads", failed)
	}
	victim := -1
	for i := range ref {
		if len(ref[i]) > 0 && len(ref[i][0].Path) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no read mapped")
	}
	corruptions := map[string]func(e *extend.Extension){
		"score":      func(e *extend.Extension) { e.Score-- },
		"read end":   func(e *extend.Extension) { e.ReadEnd-- },
		"strand":     func(e *extend.Extension) { e.Rev = !e.Rev },
		"offset":     func(e *extend.Extension) { e.StartPos.Off++ },
		"mismatches": func(e *extend.Extension) { e.Mismatches = append([]int32{e.ReadStart}, e.Mismatches...) },
		// The clone shares Path with the reference: edit a copy.
		"path": func(e *extend.Extension) { e.Path = append(slices.Clone(e.Path), e.Path[0]) },
	}
	for name, corrupt := range corruptions {
		got := cloneExtensions(ref)
		corrupt(&got[victim][0])
		failed, first := exp.diff(got)
		if failed != 1 || first != victim {
			t.Errorf("%s corrupted on read %d: diff reports %d failed, first %d", name, victim, failed, first)
		}
	}

	// The invariants catch a wrong extension on their own, with no reference
	// to compare against.
	read := &b.Reads[victim]
	for _, name := range []string{"score", "offset", "mismatches"} {
		got := cloneExtensions(ref)
		corruptions[name](&got[victim][0])
		if err := checkRead(b.Pangenome.Graph, read, got[victim]); err == nil {
			t.Errorf("%s corrupted: the invariant check accepted it", name)
		}
	}
	if failed, _ := exp.diff(ref[:len(ref)-1]); failed == 0 {
		t.Error("a short result set passed the check")
	}
}

func TestRequestPoolVerify(t *testing.T) {
	b, _, ref := smallInputs(t)
	recs, err := b.CaptureSeeds()
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buildRequestPool(recs, ref, 3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildRequestPool(recs, ref, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(pool.Bodies[17]) != string(again.Bodies[17]) {
		t.Error("the same seed drew different requests")
	}
	// A response as the server writes it: metadata first, results last.
	body := append([]byte(`{"trace_id":"00000000000000010000000000000002","client":"c","reads":8,"extensions":8,"service_ms":0.4,`), pool.Tails[5]...)
	body = append(body, '\n')
	if !pool.verify(5, body) {
		t.Error("the expected response did not verify")
	}
	if pool.verify(6, body) {
		t.Error("request 5's response verified as request 6's")
	}
	// The same results, encoded differently, still verify by value.
	var decoded map[string]any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(decoded, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !pool.verify(5, indented) {
		t.Error("re-encoded response with equal results did not verify")
	}
	// One score off by one must not.
	results := decoded["results"].([]any)
	for _, r := range results {
		exts := r.(map[string]any)["extensions"].([]any)
		if len(exts) > 0 {
			e := exts[0].(map[string]any)
			e["score"] = e["score"].(float64) + 1
			break
		}
	}
	wrong, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if pool.verify(5, wrong) {
		t.Error("a response with one wrong score verified")
	}
}
