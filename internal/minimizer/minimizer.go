// Package minimizer implements the minimizer index Giraffe seeds its mapping
// with (Zheng, Kingsford, Marçais, Bioinformatics 2020): for every window of
// w consecutive k-mers, the k-mer with the smallest hash is a *minimizer*.
// Indexing the minimizers of the pangenome's haplotype paths and intersecting
// them with the minimizers of a read yields candidate seed positions at a
// fraction of the memory of a full k-mer index.
package minimizer

import (
	"errors"
	"fmt"

	"repro/internal/dna"
)

// Config holds the k-mer and window lengths. Giraffe's short-read defaults
// are k=29, w=11; this reproduction defaults smaller because synthetic
// genomes are smaller.
type Config struct {
	K int // k-mer length, 1..31
	W int // window length in k-mers, ≥1
}

// DefaultConfig matches the scaled-down synthetic workloads.
func DefaultConfig() Config { return Config{K: 15, W: 8} }

// Validate checks parameter bounds.
func (c Config) Validate() error {
	if c.K < 1 || c.K > 31 {
		return fmt.Errorf("minimizer: k=%d outside [1,31]", c.K)
	}
	if c.W < 1 {
		return fmt.Errorf("minimizer: w=%d < 1", c.W)
	}
	return nil
}

// Minimizer is one selected k-mer occurrence in a sequence.
type Minimizer struct {
	// Off is the offset of the k-mer's first base in the sequence.
	Off int32
	// Hash orders k-mers; the minimizer is the window's smallest hash.
	Hash uint64
	// Kmer is the canonical 2-bit packed k-mer value.
	Kmer uint64
	// Rev is true when the canonical form is the reverse complement of the
	// sequence's forward k-mer.
	Rev bool
}

// ErrSequenceTooShort reports a sequence shorter than one full window.
var ErrSequenceTooShort = errors.New("minimizer: sequence shorter than k+w-1")

// splitmix64 is the finaliser used to order k-mers; it is invertible and
// well-distributed, mirroring the hash family used in practice.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Minimizers returns the minimizers of seq under cfg, in ascending offset
// order, with consecutive duplicates (same occurrence winning several
// windows) collapsed. It returns ErrSequenceTooShort when seq has no
// complete window.
func Minimizers(seq dna.Sequence, cfg Config) ([]Minimizer, error) {
	return appendMinimizers(nil, seq, cfg)
}

// ringSize is how many window candidates the scan keeps on its own stack,
// enough for any w below it (Giraffe's short-read w is 11). It must be a
// power of two.
const ringSize = 32

// appendMinimizers is Minimizers appending to dst, for a caller that does not
// keep the list (Index.AppendLookup scans a read into a stack buffer). It
// allocates nothing but dst's growth, and a ring when w reaches ringSize.
func appendMinimizers(dst []Minimizer, seq dna.Sequence, cfg Config) ([]Minimizer, error) {
	if err := cfg.Validate(); err != nil {
		return dst, err
	}
	k, w := cfg.K, cfg.W
	if len(seq) < k+w-1 {
		return dst, fmt.Errorf("%w: len %d < %d", ErrSequenceTooShort, len(seq), k+w-1)
	}
	// Sliding-window minima via a monotonic deque of the k-mers that can
	// still win a window: hashes ascend from head to tail, so the head is
	// the current window's minimizer. A k-mer joins before the one leaving
	// the window is dropped, so it holds up to w+1 k-mers (a homopolymer
	// run, whose hashes all tie, fills it), in a ring indexed by two
	// counters.
	var fixed [ringSize]Minimizer
	ring := fixed[:]
	if w >= ringSize {
		n := ringSize
		for n <= w {
			n <<= 1
		}
		ring = make([]Minimizer, n)
	}
	rmask := len(ring) - 1
	head, tail := 0, 0
	lastEmitted := int32(-1)
	// Rolling canonical k-mers.
	mask := uint64(1)<<(2*k) - 1
	var fwd, rc uint64
	for i, b := range seq {
		fwd = ((fwd << 2) | uint64(b)) & mask
		rc = (rc >> 2) | (uint64(b.Complement()) << uint(2*(k-1)))
		if i < k-1 {
			continue
		}
		j := int32(i - k + 1)
		canon, rev := fwd, false
		if rc < fwd {
			canon, rev = rc, true
		}
		hash := splitmix64(canon)
		// Strict comparison keeps the leftmost k-mer among equal hashes,
		// the standard minimizer tie-break.
		for tail > head && ring[(tail-1)&rmask].Hash > hash {
			tail--
		}
		ring[tail&rmask] = Minimizer{Off: j, Hash: hash, Kmer: canon, Rev: rev}
		tail++
		if ring[head&rmask].Off <= j-int32(w) {
			head++
		}
		if m := &ring[head&rmask]; j >= int32(w-1) && m.Off != lastEmitted {
			dst = append(dst, *m)
			lastEmitted = m.Off
		}
	}
	return dst, nil
}

// KmerString decodes a 2-bit packed k-mer back to bases (for debugging and
// tests).
func KmerString(kmer uint64, k int) string {
	out := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		out[i] = dna.Base(kmer & 3).Char()
		kmer >>= 2
	}
	return string(out)
}
