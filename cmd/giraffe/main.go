// Command giraffe runs the parent-emulator pipeline: the full Giraffe-like
// mapping flow (preprocessing, the two critical functions, post-processing)
// under the VG-style batch scheduler. It writes one alignment TSV line per
// read and, on request, the proxy's captured inputs (-capture) and the
// per-thread region timeline (-timeline).
//
// Usage:
//
//	giraffe -gbz A-human.gbz -reads A-human.fq -threads 16 -out out.tsv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/fastq"
	"repro/internal/gbz"
	"repro/internal/giraffe"
	"repro/internal/seeds"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("giraffe: ")
	gbzPath := flag.String("gbz", "", "pangenome .gbz file (required)")
	readsPath := flag.String("reads", "", "FASTQ reads (required)")
	threads := flag.Int("threads", 1, "worker threads")
	batch := flag.Int("batch", 512, "scheduler batch size")
	capacity := flag.Int("capacity", 256, "initial CachedGBWT capacity")
	out := flag.String("out", "", "alignment TSV output (default stdout)")
	capture := flag.String("capture", "", "write captured seeds (the proxy input) to this .bin file")
	timeline := flag.String("timeline", "", "write the per-thread region timeline CSV here")
	flag.Parse()
	if *gbzPath == "" || *readsPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := gbz.Load(*gbzPath)
	if err != nil {
		log.Fatal(err)
	}
	reads, err := fastq.ReadFile(*readsPath)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := giraffe.BuildIndexes(f)
	if err != nil {
		log.Fatal(err)
	}
	var rec *trace.Recorder
	if *timeline != "" {
		rec = trace.NewRecorder(*threads)
	}
	res, err := giraffe.Map(ix, reads, giraffe.Options{
		Threads:       *threads,
		BatchSize:     *batch,
		CacheCapacity: *capacity,
		Trace:         rec,
		CaptureSeeds:  *capture != "",
	})
	if err != nil {
		log.Fatal(err)
	}

	w := os.Stdout
	if *out != "" {
		if w, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "read\tmapped\tnode\toffset\tstrand\tscore\tmapq")
	mapped := 0
	for _, al := range res.Alignments {
		if !al.Mapped {
			fmt.Fprintf(bw, "%s\tfalse\t.\t.\t.\t.\t0\n", al.ReadName)
			continue
		}
		mapped++
		strand := "+"
		if al.Best.Rev {
			strand = "-"
		}
		fmt.Fprintf(bw, "%s\ttrue\t%d\t%d\t%s\t%d\t%d\n",
			al.ReadName, al.Best.StartPos.Node, al.Best.StartPos.Off, strand, al.Best.Score, al.MappingQuality)
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		// A failed close is a truncated TSV: it fails the run.
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "mapped %d/%d reads in %v (%d threads)\n",
		mapped, len(reads), res.Makespan, *threads)

	if *capture != "" {
		if err := seeds.WriteFile(*capture, res.Captured); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "captured seeds -> %s\n", *capture)
	}
	if *timeline != "" {
		file, err := os.Create(*timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := rec.WriteTimelineCSV(file); err != nil {
			log.Fatal(err)
		}
		if err := file.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "timeline -> %s\n", *timeline)
	}
}
