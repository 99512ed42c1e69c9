// Package workload generates the synthetic input sets that stand in for the
// paper's four datasets (Table III): A-human (single-end, few reads, large
// graph), B-yeast (single-end, many reads, small graph), C-HPRC and D-HPRC
// (paired-end, medium and very large read counts). The real datasets are
// 0.6–13 GB of reads against up to 18 GB pangenomes; this reproduction
// scales them down deterministically while preserving their *relative*
// shapes — read-count ratios, single- versus paired-end workflows, graph
// size ordering, and the memory footprints that make input set D exceed the
// 256 GB machines (§VII-A). DESIGN.md documents the substitution.
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/dna"
	"repro/internal/gbwt"
	"repro/internal/gbz"
	"repro/internal/minimizer"
	"repro/internal/seeds"
	"repro/internal/snarl"
	"repro/internal/vgraph"
)

// Workflow distinguishes single- from paired-end read sets.
type Workflow int

// The two workflows of Table III.
const (
	Single Workflow = iota
	Paired
)

func (w Workflow) String() string {
	if w == Paired {
		return "paired"
	}
	return "single"
}

// Spec describes one input set.
type Spec struct {
	Name     string
	Workflow Workflow
	// Reads is the total number of reads at Scale 1 (paired counts both
	// ends).
	Reads   int
	ReadLen int
	// RefLen is the linear reference length the pangenome is built from.
	RefLen int
	// VariantEvery is the average base spacing between variant sites.
	VariantEvery int
	// Haplotypes is the number of haplotype paths stored in the GBWT.
	Haplotypes int
	// ErrorRate is the per-base substitution error rate of the sequencer.
	ErrorRate float64
	// FragmentLen is the paired-end fragment length (0 for single-end).
	FragmentLen int
	// Seed makes generation deterministic.
	Seed int64
	// ZipfS, when > 0, skews read start positions along each haplotype with
	// a zipf law of exponent s (P(start=p) ∝ (1+p)^-s): the hot-prefix
	// access pattern of real pangenomes, where a few node records absorb
	// most GBWT lookups. 0 (the default) keeps the uniform sampler on a
	// byte-identical code path. Values in (0,1] clamp to 1.01 (rand.Zipf
	// requires s > 1, as in cmd/loadgen's client mix).
	ZipfS float64
	// MemGB is the modelled memory requirement on the paper's full-size
	// data, used by the machine models' OOM check.
	MemGB float64
	// PaperReadsM and PaperRefGB record the full-size dataset shape from
	// Table III for reporting.
	PaperReadsM float64
	PaperRefGB  float64
}

// The four input sets, scaled so the complete experiment suite runs on a
// laptop in minutes. Read-count ratios follow Table III (1 : 24.5 : 8 :
// 71.1 M).
func AHuman() Spec {
	return Spec{
		Name: "A-human", Workflow: Single,
		Reads: 1500, ReadLen: 148,
		RefLen: 150000, VariantEvery: 120, Haplotypes: 16,
		ErrorRate: 0.002, Seed: 1001,
		MemGB: 32, PaperReadsM: 1.0, PaperRefGB: 18.0,
	}
}

func BYeast() Spec {
	return Spec{
		Name: "B-yeast", Workflow: Single,
		Reads: 36750, ReadLen: 100,
		RefLen: 40000, VariantEvery: 90, Haplotypes: 8,
		ErrorRate: 0.003, Seed: 1002,
		MemGB: 8, PaperReadsM: 24.5, PaperRefGB: 0.1,
	}
}

func CHPRC() Spec {
	return Spec{
		Name: "C-HPRC", Workflow: Paired,
		Reads: 12000, ReadLen: 148,
		RefLen: 120000, VariantEvery: 110, Haplotypes: 24,
		ErrorRate: 0.002, FragmentLen: 420, Seed: 1003,
		MemGB: 48, PaperReadsM: 8.0, PaperRefGB: 3.1,
	}
}

func DHPRC() Spec {
	return Spec{
		Name: "D-HPRC", Workflow: Paired,
		Reads: 106650, ReadLen: 148,
		RefLen: 140000, VariantEvery: 110, Haplotypes: 24,
		ErrorRate: 0.002, FragmentLen: 420, Seed: 1004,
		MemGB: 300, PaperReadsM: 71.1, PaperRefGB: 3.4,
	}
}

// AllSpecs returns the four input sets in Table III order.
func AllSpecs() []Spec { return []Spec{AHuman(), BYeast(), CHPRC(), DHPRC()} }

// ByName finds an input set by name (case-sensitive, as printed).
func ByName(name string) (Spec, error) {
	for _, s := range AllSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown input set %q", name)
}

// Scaled returns a copy with the read count (and nothing else) multiplied by
// scale — the knob the test suite and the 10% autotuning subsample use.
func (s Spec) Scaled(scale float64) Spec {
	if scale <= 0 {
		scale = 1
	}
	s.Reads = int(float64(s.Reads) * scale)
	if s.Reads < 4 {
		s.Reads = 4
	}
	if s.Workflow == Paired && s.Reads%2 == 1 {
		s.Reads++
	}
	return s
}

// Bundle is a fully generated input set: the pangenome, its indexes, the
// haplotypes, and the simulated reads.
type Bundle struct {
	Spec      Spec
	Pangenome *vgraph.Pangenome
	Index     *gbwt.GBWT
	MinIx     *minimizer.Index
	Dist      *snarl.Tree
	Haps      [][]vgraph.NodeID
	HapSeqs   []dna.Sequence
	Reads     []dna.Read
}

// Generate builds the bundle for the spec. Deterministic in Spec.Seed.
func Generate(spec Spec) (*Bundle, error) {
	mcfg := minimizer.DefaultConfig()
	if spec.RefLen < 1000 || spec.Reads < 1 || spec.ReadLen < mcfg.K+mcfg.W {
		return nil, fmt.Errorf("workload: degenerate spec %+v", spec)
	}
	if spec.Workflow == Paired && spec.FragmentLen < 2*spec.ReadLen {
		return nil, errors.New("workload: paired fragment shorter than two reads")
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Reference and variants.
	ref := make(dna.Sequence, spec.RefLen)
	for i := range ref {
		ref[i] = dna.Base(rng.Intn(4))
	}
	var vs []vgraph.Variant
	for pos := spec.VariantEvery; pos < spec.RefLen-spec.VariantEvery; {
		switch rng.Intn(4) {
		case 0, 1: // SNPs dominate real variant sets
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.SNP, Alt: dna.Sequence{(ref[pos] + 1 + dna.Base(rng.Intn(3))) & 3}})
		case 2:
			ins := make(dna.Sequence, 1+rng.Intn(8))
			for i := range ins {
				ins[i] = dna.Base(rng.Intn(4))
			}
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Insertion, Alt: ins})
		case 3:
			vs = append(vs, vgraph.Variant{Pos: pos, Kind: vgraph.Deletion, DelLen: 1 + rng.Intn(10)})
		}
		pos += spec.VariantEvery/2 + rng.Intn(spec.VariantEvery)
	}
	pg, err := vgraph.BuildPangenome(ref, vs, 24)
	if err != nil {
		return nil, fmt.Errorf("workload: building pangenome: %w", err)
	}

	b := &Bundle{Spec: spec, Pangenome: pg}
	// Haplotypes: allele vectors with population-like allele frequencies
	// (each site has a random alt-allele frequency).
	altFreq := make([]float64, pg.NumSites())
	for i := range altFreq {
		altFreq[i] = rng.Float64() * 0.6
	}
	for h := 0; h < spec.Haplotypes; h++ {
		alleles := make([]int, pg.NumSites())
		for i := range alleles {
			if rng.Float64() < altFreq[i] {
				alleles[i] = 1
			}
		}
		path, err := pg.HaplotypePath(alleles)
		if err != nil {
			return nil, err
		}
		seq, err := pg.HaplotypeSeq(alleles)
		if err != nil {
			return nil, err
		}
		if _, err := pg.AddPath(path); err != nil {
			return nil, err
		}
		b.Haps = append(b.Haps, path)
		b.HapSeqs = append(b.HapSeqs, seq)
	}
	b.Index, err = gbwt.New(b.Haps)
	if err != nil {
		return nil, fmt.Errorf("workload: building GBWT: %w", err)
	}
	b.MinIx, err = minimizer.Build(pg.Graph, b.Haps, mcfg)
	if err != nil {
		return nil, fmt.Errorf("workload: building minimizer index: %w", err)
	}
	b.Dist, err = snarl.Decompose(pg.Graph)
	if err != nil {
		return nil, fmt.Errorf("workload: building distance index: %w", err)
	}

	// Reads.
	if spec.Workflow == Single {
		for i := 0; i < spec.Reads; i++ {
			b.Reads = append(b.Reads, b.sampleRead(rng, fmt.Sprintf("%s.%d", spec.Name, i), -1, 0, spec.ReadLen, -1))
		}
	} else {
		frags := spec.Reads / 2
		for f := 0; f < frags; f++ {
			hap := rng.Intn(len(b.HapSeqs))
			maxStart := len(b.HapSeqs[hap]) - spec.FragmentLen
			if maxStart < 1 {
				return nil, errors.New("workload: haplotype shorter than fragment")
			}
			start := b.sampleStart(rng, maxStart)
			r1 := b.makeRead(rng, fmt.Sprintf("%s.%d/1", spec.Name, f), hap, start, spec.ReadLen, false, f, 0)
			// Second end: sequenced from the other side of the fragment.
			r2start := start + spec.FragmentLen - spec.ReadLen
			r2 := b.makeRead(rng, fmt.Sprintf("%s.%d/2", spec.Name, f), hap, r2start, spec.ReadLen, true, f, 1)
			b.Reads = append(b.Reads, r1, r2)
		}
	}
	return b, nil
}

// sampleRead draws a single-end read from a random haplotype and strand.
func (b *Bundle) sampleRead(rng *rand.Rand, name string, frag, end, readLen, _ int) dna.Read {
	hap := rng.Intn(len(b.HapSeqs))
	maxStart := len(b.HapSeqs[hap]) - readLen
	start := b.sampleStart(rng, maxStart)
	rev := rng.Intn(2) == 1
	return b.makeRead(rng, name, hap, start, readLen, rev, frag, end)
}

// sampleStart draws a read (or fragment) start position in [0, maxStart).
// With ZipfS unset this is exactly the historical uniform draw — one
// rng.Intn call, so ZipfS == 0 workloads stay byte-identical to those
// generated before the knob existed. With ZipfS > 0 the draw is zipf over
// positions: low coordinates dominate, concentrating seed node accesses on
// the haplotype prefix the way hot regions dominate real pangenomes.
func (b *Bundle) sampleStart(rng *rand.Rand, maxStart int) int {
	if b.Spec.ZipfS <= 0 {
		return rng.Intn(maxStart)
	}
	s := b.Spec.ZipfS
	if s <= 1 {
		s = 1.01 // rand.Zipf requires s > 1
	}
	return int(rand.NewZipf(rng, s, 1, uint64(maxStart-1)).Uint64())
}

// makeRead cuts a read from haplotype hap at start, optionally
// reverse-complements it, and applies sequencing errors.
func (b *Bundle) makeRead(rng *rand.Rand, name string, hap, start, readLen int, rev bool, frag, end int) dna.Read {
	seq := b.HapSeqs[hap][start : start+readLen].Clone()
	if rev {
		seq = seq.RevComp()
	}
	for i := range seq {
		if rng.Float64() < b.Spec.ErrorRate {
			seq[i] = (seq[i] + 1 + dna.Base(rng.Intn(3))) & 3
		}
	}
	return dna.Read{Name: name, Seq: seq, Fragment: frag, End: end}
}

// CaptureSeeds runs the preprocessing (minimizer lookup + seed extraction)
// for every read — the step Giraffe performs before the critical functions,
// whose outputs the paper captures as the proxy's input (§V).
func (b *Bundle) CaptureSeeds() ([]seeds.ReadSeeds, error) {
	out := make([]seeds.ReadSeeds, len(b.Reads))
	for i := range b.Reads {
		ss, err := seeds.Extract(b.MinIx, &b.Reads[i])
		if err != nil {
			return nil, fmt.Errorf("workload: extracting seeds for read %d: %w", i, err)
		}
		out[i] = seeds.ReadSeeds{Read: b.Reads[i], Seeds: ss}
	}
	return out, nil
}

// GBZ packages the pangenome and GBWT as a container file value.
func (b *Bundle) GBZ() *gbz.File {
	return &gbz.File{Graph: b.Pangenome.Graph, Index: b.Index}
}

// WorkingSetMB estimates the mapper's hot working set: graph sequences +
// compressed GBWT + the decompressed-record cache at the given capacity per
// worker. Used by the machine models' cache factor.
func (b *Bundle) WorkingSetMB(cacheCapacity, workers int) float64 {
	graphBytes := b.Pangenome.TotalSeqLen()
	gbwtBytes := b.Index.CompressedSize()
	// A decompressed record costs roughly 128 bytes hot (edges, ranks, and
	// hash-table slot); each worker holds two caches (forward and reverse
	// orientation of the bidirectional index).
	cacheBytes := cacheCapacity * 128 * 2 * workers
	return float64(graphBytes+gbwtBytes+cacheBytes) / (1 << 20)
}

// Subsample returns a bundle view containing only the first fraction of
// reads — the paper's 10% autotuning subsample (§VII-B). Indexes and graph
// are shared with the original.
func (b *Bundle) Subsample(fraction float64) *Bundle {
	if fraction <= 0 || fraction >= 1 {
		return b
	}
	n := int(float64(len(b.Reads)) * fraction)
	if n < 1 {
		n = 1
	}
	clone := *b
	clone.Reads = b.Reads[:n]
	return &clone
}
