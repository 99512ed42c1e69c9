// Command extractseeds performs Giraffe's preprocessing only — minimizer
// lookup and seed creation — and writes the result as the proxy's
// sequence-seeds.bin. This is the capture step of §V: the proxy's inputs
// are extracted from the parent right before the critical functions run.
//
// Records flow from the FASTQ scanner through giraffe.Preprocess into the
// count-free v2 capture stream one at a time (giraffe.CaptureSeeds), so
// capture memory does not scale with the workload. seeds.Reader reads both
// capture versions, so the file maps like genworkload's v1 capture.
//
// Usage:
//
//	extractseeds -gbz A-human.gbz -reads A-human.fq -out A-human-seeds.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/gbz"
	"repro/internal/giraffe"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("extractseeds: ")
	gbzPath := flag.String("gbz", "", "pangenome .gbz file (required)")
	readsPath := flag.String("reads", "", "FASTQ reads (required)")
	out := flag.String("out", "sequence-seeds.bin", "output .bin file")
	flag.Parse()
	if *gbzPath == "" || *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := gbz.Load(*gbzPath)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		log.Fatal(err)
	}
	in, err := os.Open(*readsPath)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	outFile, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	st, err := giraffe.CaptureSeeds(ix.MinIx, in, outFile)
	if err != nil {
		outFile.Close()
		log.Fatal(err)
	}
	if err := outFile.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted %d seeds from %d reads -> %s\n", st.TotalSeeds, st.Reads, *out)
}
