// Command genworkload generates a synthetic input set (Table III stand-in)
// and writes three files: the pangenome as <set>.gbz, the reads as <set>.fq,
// and the captured seeds, the proxy's input, as <set>-seeds.bin.
//
// Usage:
//
//	genworkload -input A-human -scale 1.0 -outdir data/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/fastq"
	"repro/internal/gbz"
	"repro/internal/seeds"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genworkload: ")
	input := flag.String("input", "A-human", "input set: A-human, B-yeast, C-HPRC, D-HPRC")
	scale := flag.Float64("scale", 1.0, "read-count scale factor")
	zipf := flag.Float64("zipf", 0, "zipf skew of read start positions (>1; 0 = uniform, byte-identical to historical output)")
	outdir := flag.String("outdir", ".", "output directory")
	flag.Parse()

	spec, err := workload.ByName(*input)
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scaled(*scale)
	spec.ZipfS = *zipf
	fmt.Printf("generating %s: %d reads (%s), reference %d bp, %d haplotypes, zipf %g\n",
		spec.Name, spec.Reads, spec.Workflow, spec.RefLen, spec.Haplotypes, spec.ZipfS)
	b, err := workload.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	gbzPath := filepath.Join(*outdir, spec.Name+".gbz")
	if err := gbz.Save(gbzPath, b.GBZ()); err != nil {
		log.Fatal(err)
	}
	fqPath := filepath.Join(*outdir, spec.Name+".fq")
	if err := fastq.WriteFile(fqPath, b.Reads); err != nil {
		log.Fatal(err)
	}
	recs, err := b.CaptureSeeds()
	if err != nil {
		log.Fatal(err)
	}
	binPath := filepath.Join(*outdir, spec.Name+"-seeds.bin")
	if err := seeds.WriteFile(binPath, recs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s, %s, %s\n", gbzPath, fqPath, binPath)
	fmt.Printf("graph: %d nodes, %d edges, %d bp; GBWT: %d paths, %d compressed bytes\n",
		b.Pangenome.NumNodes(), b.Pangenome.NumEdges(), b.Pangenome.TotalSeqLen(),
		b.Index.NumPaths(), b.Index.CompressedSize())
}
