// Package dna provides the base-level sequence substrate used throughout the
// miniGiraffe reproduction: 2-bit base codes, packed sequence storage,
// reverse complements, and the short-read records that the mapping pipeline
// consumes.
//
// DNA is represented over the four-letter alphabet A, C, G, T. Internally a
// base is a 2-bit code (A=0, C=1, G=2, T=3) so that complementation is
// `3-code` and packed storage fits four bases per byte.
package dna

import (
	"errors"
	"fmt"
	"strings"
)

// Base is a 2-bit DNA base code: A=0, C=1, G=2, T=3.
type Base uint8

// The four bases in code order.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NumBases is the alphabet size.
const NumBases = 4

var baseToChar = [NumBases]byte{'A', 'C', 'G', 'T'}

// charToBase maps an ASCII byte to its base code, or 0xFF for invalid bytes.
var charToBase [256]byte

func init() {
	for i := range charToBase {
		charToBase[i] = 0xFF
	}
	charToBase['A'], charToBase['a'] = 0, 0
	charToBase['C'], charToBase['c'] = 1, 1
	charToBase['G'], charToBase['g'] = 2, 2
	charToBase['T'], charToBase['t'] = 3, 3
}

// Char returns the upper-case ASCII letter for b.
func (b Base) Char() byte { return baseToChar[b&3] }

// Complement returns the Watson-Crick complement of b (A<->T, C<->G).
func (b Base) Complement() Base { return 3 - (b & 3) }

// String implements fmt.Stringer.
func (b Base) String() string { return string(baseToChar[b&3]) }

// BaseFromChar converts an ASCII letter to a base code. ok is false for
// non-ACGT characters (including N).
func BaseFromChar(c byte) (b Base, ok bool) {
	v := charToBase[c]
	return Base(v), v != 0xFF
}

// Sequence is an unpacked DNA sequence, one base code per byte. The unpacked
// form is what the performance-critical kernels iterate over; Packed below is
// the storage form.
type Sequence []Base

// ErrInvalidBase reports a non-ACGT character during parsing.
var ErrInvalidBase = errors.New("dna: invalid base character")

// Parse converts an ACGT string to a Sequence. It returns ErrInvalidBase
// (wrapped with position info) on any other character.
func Parse(s string) (Sequence, error) {
	return ParseBytes([]byte(s)) // not a copy: ParseBytes only reads s
}

// ParseBytes is Parse over bytes the caller keeps (a scanner's line buffer):
// the Sequence, sized exactly, is the only thing it allocates.
func ParseBytes(s []byte) (Sequence, error) {
	seq, err := AppendParse(make(Sequence, 0, len(s)), s)
	if err != nil {
		return nil, err
	}
	return seq, nil
}

// AppendParse is ParseBytes onto the end of dst — a slab that holds a whole
// batch's bases — and returns the extended slice; with room in dst it
// allocates nothing. On an invalid character dst comes back at its old
// length.
func AppendParse(dst Sequence, s []byte) (Sequence, error) {
	lo := len(dst)
	if cap(dst)-lo < len(s) {
		// Exactly len(s) for an empty dst, at least double for a slab.
		dst = append(make(Sequence, 0, lo+max(len(s), cap(dst))), dst...)
	}
	dst = dst[:lo+len(s)]
	for i, c := range s {
		b, ok := BaseFromChar(c)
		if !ok {
			return dst[:lo], fmt.Errorf("%w: %q at offset %d", ErrInvalidBase, c, i)
		}
		dst[lo+i] = b
	}
	return dst, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(s string) Sequence {
	seq, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// String renders the sequence as an ACGT string.
func (s Sequence) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, b := range s {
		sb.WriteByte(b.Char())
	}
	return sb.String()
}

// Clone returns an independent copy of s.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// RevComp returns the reverse complement of s as a new sequence.
func (s Sequence) RevComp() Sequence {
	out := make(Sequence, len(s))
	s.RevCompInto(out)
	return out
}

// RevCompInto writes the reverse complement of s into dst, which must be
// len(s) long and must not overlap s.
func (s Sequence) RevCompInto(dst Sequence) {
	for i, b := range s {
		dst[len(s)-1-i] = b.Complement()
	}
}

// Equal reports whether s and t hold the same bases.
func (s Sequence) Equal(t Sequence) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Packed is a 2-bit-per-base packed DNA sequence, four bases per byte,
// little-endian within the byte (base i occupies bits 2*(i%4)..2*(i%4)+1 of
// byte i/4). This is the on-disk and in-graph storage format.
type Packed struct {
	data []byte
	n    int
}

// Pack converts an unpacked sequence to packed storage.
func Pack(s Sequence) Packed {
	data := make([]byte, (len(s)+3)/4)
	for i, b := range s {
		data[i/4] |= byte(b&3) << uint(2*(i%4))
	}
	return Packed{data: data, n: len(s)}
}

// PackedFromRaw reconstructs a Packed from its serialized parts. It is the
// inverse of (Packed).Raw and validates that data is large enough for n.
func PackedFromRaw(data []byte, n int) (Packed, error) {
	if need := (n + 3) / 4; len(data) < need || n < 0 {
		return Packed{}, fmt.Errorf("dna: packed data too short: have %d bytes, need %d for %d bases", len(data), (n+3)/4, n)
	}
	return Packed{data: data, n: n}, nil
}

// Raw returns the underlying packed bytes and the base count, for
// serialization. The returned slice aliases the Packed's storage.
func (p Packed) Raw() (data []byte, n int) { return p.data, p.n }

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// At returns base i. It panics if i is out of range, mirroring slice indexing.
func (p Packed) At(i int) Base {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("dna: Packed index %d out of range [0,%d)", i, p.n))
	}
	return Base(p.data[i/4]>>uint(2*(i%4))) & 3
}

// Unpack expands the packed sequence to one base per byte.
func (p Packed) Unpack() Sequence {
	out := make(Sequence, p.n)
	p.UnpackTo(out)
	return out
}

// unpacked[c] is packed byte c as its four bases, lowest bits first.
var unpacked = func() (t [256][4]Base) {
	for c := range t {
		for j := range t[c] {
			t[c][j] = Base(c>>(2*j)) & 3
		}
	}
	return t
}()

// UnpackTo expands the packed sequence into dst[:Len()], four bases per
// packed byte from a table. Like the slice indexing it stands for, it
// panics when dst is shorter than Len().
func (p Packed) UnpackTo(dst Sequence) {
	dst = dst[:p.n:len(dst)]
	whole := p.n / 4
	for i, c := range p.data[:whole] {
		*(*[4]Base)(dst[4*i:]) = unpacked[c]
	}
	if tail := dst[4*whole:]; len(tail) > 0 {
		copy(tail, unpacked[p.data[whole]][:])
	}
}

// Read is one short read to be mapped: a name, the sequence, and for
// paired-end workflows the fragment identity and end index.
type Read struct {
	// Name identifies the read (e.g. "SRR4074257.17").
	Name string
	// Seq is the read's bases in sequencing order.
	Seq Sequence
	// Fragment groups the two ends of a paired-end fragment; -1 when
	// single-end.
	Fragment int
	// End is 0 for single-end or first-of-pair, 1 for second-of-pair.
	End int
}

// Paired reports whether the read belongs to a paired-end fragment.
func (r *Read) Paired() bool { return r.Fragment >= 0 }

// Len returns the read length in bases.
func (r *Read) Len() int { return len(r.Seq) }
