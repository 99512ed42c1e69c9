package gbwt

import (
	"math/rand"
	"reflect"
	"testing"
)

func mustBi(t testing.TB, paths [][]NodeID) *Bidirectional {
	t.Helper()
	b, err := NewBidirectional(paths)
	if err != nil {
		t.Fatalf("NewBidirectional: %v", err)
	}
	return b
}

// naiveCount counts occurrences of sub as a consecutive subpath across paths.
func naiveCount(paths [][]NodeID, sub []NodeID) int {
	n := 0
	for _, p := range paths {
		for i := 0; i+len(sub) <= len(p); i++ {
			match := true
			for j := range sub {
				if p[i+j] != sub[j] {
					match = false
					break
				}
			}
			if match {
				n++
			}
		}
	}
	return n
}

func TestBidirectionalDiamond(t *testing.T) {
	b := mustBi(t, diamondPaths)
	cases := [][]NodeID{
		{1}, {1, 2}, {2, 4}, {1, 2, 4, 5}, {4, 5, 7}, {1, 3, 4, 6, 7}, {2, 3},
	}
	for _, sub := range cases {
		want := naiveCount(diamondPaths, sub)
		if got := b.FindBi(sub).Size(); got != want {
			t.Errorf("FindBi(%v) = %d, want %d", sub, got, want)
		}
		// Forward and bidirectional search agree.
		if got := b.Forward().Find(sub).Size(); got != want {
			t.Errorf("forward Find(%v) = %d, want %d", sub, got, want)
		}
	}
}

func TestExtendLeftStepwise(t *testing.T) {
	b := mustBi(t, diamondPaths)
	// Start at node 7 and walk the match leftward: 7, 5·7?, ...
	s := b.BiFullState(7)
	if s.Size() != 5 {
		t.Fatalf("full state at 7: %d", s.Size())
	}
	s = b.ExtendLeft(s, 5)
	if got, want := s.Size(), naiveCount(diamondPaths, []NodeID{5, 7}); got != want {
		t.Fatalf("after left 5: %d, want %d", got, want)
	}
	s = b.ExtendLeft(s, 4)
	if got, want := s.Size(), naiveCount(diamondPaths, []NodeID{4, 5, 7}); got != want {
		t.Fatalf("after left 4: %d, want %d", got, want)
	}
	s = b.ExtendLeft(s, 2)
	if got, want := s.Size(), naiveCount(diamondPaths, []NodeID{2, 4, 5, 7}); got != want {
		t.Fatalf("after left 2: %d, want %d", got, want)
	}
	// A non-predecessor kills the state.
	if !b.ExtendLeft(s, 6).Empty() {
		t.Error("impossible left extension survived")
	}
}

func TestBiStateSizesAgree(t *testing.T) {
	b := mustBi(t, diamondPaths)
	s := b.BiFullState(4)
	steps := []struct {
		left bool
		node NodeID
	}{{false, 5}, {true, 2}, {false, 7}, {true, 1}}
	for _, st := range steps {
		if st.left {
			s = b.ExtendLeft(s, st.node)
		} else {
			s = b.ExtendRight(s, st.node)
		}
		if s.Fwd.Size() != s.Rev.Size() {
			t.Fatalf("ranges desynchronised: fwd %d, rev %d", s.Fwd.Size(), s.Rev.Size())
		}
	}
	if got, want := s.Size(), naiveCount(diamondPaths, []NodeID{1, 2, 4, 5, 7}); got != want {
		t.Fatalf("final size %d, want %d", got, want)
	}
}

func TestBidirectionalRandomised(t *testing.T) {
	g, paths := buildRandomHaplotypes(t, 77, 12)
	_ = g
	b := mustBi(t, paths)
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 80; trial++ {
		p := paths[rng.Intn(len(paths))]
		start := rng.Intn(len(p) - 6)
		sub := p[start : start+2+rng.Intn(5)]
		want := naiveCount(paths, sub)

		// Random interleaving of left/right extensions from a random anchor.
		anchor := rng.Intn(len(sub))
		s := b.BiFullState(sub[anchor])
		l, r := anchor-1, anchor+1
		for l >= 0 || r < len(sub) {
			goLeft := l >= 0 && (r >= len(sub) || rng.Intn(2) == 0)
			if goLeft {
				s = b.ExtendLeft(s, sub[l])
				l--
			} else {
				s = b.ExtendRight(s, sub[r])
				r++
			}
			if s.Fwd.Size() != s.Rev.Size() {
				t.Fatalf("trial %d: desynchronised sizes", trial)
			}
		}
		if got := s.Size(); got != want {
			t.Fatalf("trial %d: interleaved count %d, want %d (sub %v)", trial, got, want, sub)
		}
	}
}

func TestBidirectionalLocateAgreement(t *testing.T) {
	// After a pure-left walk, the fwd state must locate the same path set as
	// a forward search for the same match.
	_, paths := buildRandomHaplotypes(t, 99, 8)
	b := mustBi(t, paths)
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 30; trial++ {
		p := paths[rng.Intn(len(paths))]
		start := rng.Intn(len(p) - 5)
		sub := p[start : start+4]
		s := b.BiFullState(sub[len(sub)-1])
		for i := len(sub) - 2; i >= 0; i-- {
			s = b.ExtendLeft(s, sub[i])
		}
		wantState := b.Forward().Find(sub)
		if s.Fwd != wantState {
			t.Fatalf("trial %d: left-walk fwd state %+v != forward search %+v", trial, s.Fwd, wantState)
		}
		got := b.Forward().LocatePaths(s.Fwd)
		want := b.Forward().LocatePaths(wantState)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: located paths differ", trial)
		}
	}
}

func TestBiReaderCachedMatchesUncached(t *testing.T) {
	_, paths := buildRandomHaplotypes(t, 55, 10)
	b := mustBi(t, paths)
	cached := b.NewBiReader(32)
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 40; trial++ {
		p := paths[rng.Intn(len(paths))]
		i := 1 + rng.Intn(len(p)-2)
		s := b.BiFullState(p[i])
		viaPlain := b.ExtendLeft(s, p[i-1])
		viaCache := ExtendLeftWith(cached, s, p[i-1])
		if viaPlain != viaCache {
			t.Fatalf("trial %d: cached left extension diverged", trial)
		}
		viaPlainR := b.ExtendRight(s, p[i+1])
		viaCacheR := ExtendRightWith(cached, s, p[i+1])
		if viaPlainR != viaCacheR {
			t.Fatalf("trial %d: cached right extension diverged", trial)
		}
	}
}

func TestFromForward(t *testing.T) {
	fwd := mustGBWT(t, diamondPaths)
	b, err := FromForward(fwd, diamondPaths)
	if err != nil {
		t.Fatal(err)
	}
	if b.Forward() != fwd {
		t.Error("FromForward rebuilt the forward index")
	}
	if got, want := b.FindBi([]NodeID{1, 2, 4}).Size(), naiveCount(diamondPaths, []NodeID{1, 2, 4}); got != want {
		t.Errorf("FindBi = %d, want %d", got, want)
	}
	if _, err := FromForward(nil, nil); err == nil {
		t.Error("nil forward accepted")
	}
}

func TestFindBiEmptyPath(t *testing.T) {
	b := mustBi(t, diamondPaths)
	if !b.FindBi(nil).Empty() {
		t.Error("empty path matched")
	}
}
