// Command fedzkt runs the paper-reproduction experiments and prints their
// tables and figures as Markdown (and optionally CSV files): the paper's
// Tables I–IV and Figures 2–7 plus accuracy ablations. Time, bytes and
// memory are not its question; `bash bench/run.sh` measures those.
//
// Usage:
//
//	fedzkt -list
//	fedzkt -exp table1 -scale smoke
//	fedzkt -exp all -scale default -seed 3 -csv out/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	fedzkt "github.com/fedzkt/fedzkt"
	"github.com/fedzkt/fedzkt/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedzkt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fedzkt", flag.ContinueOnError)
	var (
		expID    = fs.String("exp", "", "experiment id (see -list) or \"all\"")
		scaleStr = fs.String("scale", "smoke", "experiment scale: smoke, default or full")
		csvDir   = fs.String("csv", "", "directory to also write per-artefact CSV files into")
		list     = fs.Bool("list", false, "list available experiments and exit")
		devices  int
	)
	fs.Func("devices", "federation size of every experiment (default: the scale's)", func(s string) error {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return fmt.Errorf("want one positive device count")
		}
		devices = n
		return nil
	})
	// What every federation of every experiment starts from (-seed is the
	// base seed, -checkpoint-dir the parent of one subdirectory per cell).
	fed := fedzkt.Config{Seed: 1}
	fed.BindFlags(fs)
	var proc fedzkt.ProcessFlags
	proc.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Only value domains and combinations can be judged before -scale sizes
	// the federations; that is everything Validate checks.
	if err := fed.Validate(); err != nil {
		return err
	}
	stop, err := proc.Start()
	if err != nil {
		return err
	}
	defer stop()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *expID == "" {
		return fmt.Errorf("missing -exp (use -list to see choices)")
	}
	scale, err := experiments.ParseScale(*scaleStr)
	if err != nil {
		return err
	}
	params := experiments.ParamsFor(scale)
	params.Fed = fed
	if devices > 0 {
		params.Devices = devices
	}

	var selected []experiments.Experiment
	if *expID == "all" {
		selected = experiments.All()
	} else {
		e, ok := experiments.ByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *expID)
		}
		selected = []experiments.Experiment{e}
	}

	for _, e := range selected {
		start := time.Now()
		fmt.Printf("## %s — %s (scale=%s, seed=%d)\n\n", e.ID, e.Title, *scaleStr, fed.Seed)
		res, err := e.Run(params)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fmt.Print(res.Markdown())
		fmt.Printf("_completed in %s_\n\n", time.Since(start).Round(time.Second))
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeCSVs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", dir, err)
	}
	for _, t := range res.Tables {
		path := filepath.Join(dir, t.ID+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	for _, f := range res.Figures {
		path := filepath.Join(dir, f.ID+".csv")
		if err := os.WriteFile(path, []byte(f.CSV()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}
