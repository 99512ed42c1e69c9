package seeds

import (
	"repro/internal/dna"
	"repro/internal/fastq"
	"repro/internal/minimizer"
)

// Batch is the unit of ingest memory: the records of one pipeline batch and
// the slabs their names, bases and seeds live in, so that filling a warm
// batch from FASTQ allocates one string (every name, sliced) and nothing per
// read. Whoever fills a batch owns it until it hands it on; Reset ends the
// life of everything the last fill produced — Recs and each record's Seq and
// Seeds — which is why a recycled batch must have left every stage that was
// given its records.
//
// A capture Reader decodes into the same slabs, with bases and seeds in
// chunks (take) rather than one growing slice; a source that already holds
// finished records (SliceSource) appends them to Recs and leaves the slabs
// empty.
type Batch struct {
	// Recs are the batch's records, in input order.
	Recs []ReadSeeds

	names   []byte
	nameEnd []int // nameEnd[i]: where record i's name ends in names
	bases   dna.Sequence
	seeds   []Seed
}

// Reset empties the batch and keeps its memory for the next fill.
func (b *Batch) Reset() {
	b.Recs, b.names, b.nameEnd, b.bases, b.seeds = b.Recs[:0], b.names[:0], b.nameEnd[:0], b.bases[:0], b.seeds[:0]
}

// Scan reads sc's next record into the batch's name and base slabs and
// returns it, nameless, for Add; io.EOF and parse errors are the scanner's.
func (b *Batch) Scan(sc *fastq.Scanner) (dna.Read, error) {
	var read dna.Read
	var err error
	b.names, b.bases, read, err = sc.AppendNext(b.names, b.bases)
	return read, err
}

// Add extracts the seeds of the read Scan just returned into the seed slab
// and appends the record; Seeds stays nil for a read without any, as Extract
// leaves it.
func (b *Batch) Add(ix *minimizer.Index, read dna.Read) error {
	from := len(b.seeds)
	var err error
	if b.seeds, err = AppendExtract(b.seeds, ix, &read); err != nil {
		return err
	}
	rec := ReadSeeds{Read: read}
	if n := len(b.seeds); n > from {
		rec.Seeds = b.seeds[from:n:n]
	}
	b.Recs = append(b.Recs, rec)
	b.nameEnd = append(b.nameEnd, len(b.names))
	return nil
}

// Seal names the records Add appended: one string holds every name and each
// record's Name is a slice of it.
func (b *Batch) Seal() {
	names := string(b.names)
	lo := 0
	for i, hi := range b.nameEnd {
		b.Recs[i].Read.Name = names[lo:hi]
		lo = hi
	}
}
