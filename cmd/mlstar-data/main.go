// Command mlstar-data generates the synthetic preset datasets and prints
// Table I of the paper (dataset statistics at paper scale and at the
// reproduction scale).
//
// Usage:
//
//	mlstar-data -table1
//	mlstar-data -preset kdd12 -scale 5000 -out kdd12.libsvm
package main

import (
	"flag"
	"fmt"
	"os"

	"mllibstar"
	"mllibstar/internal/data"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run is the whole command; it returns its error instead of exiting.
func run() error {
	var (
		table1 = flag.Bool("table1", false, "print Table I (all presets, paper + reproduction scale)")
		preset = flag.String("preset", "", "preset to generate: avazu, url, kddb, kdd12, wx")
		scale  = flag.Float64("scale", 5000, "downscale factor")
		out    = flag.String("out", "", "write the generated dataset to this libsvm file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: every option is a flag", flag.Args())
	}

	if *table1 {
		fmt.Println("Table I — paper scale:")
		for _, name := range data.PresetNames() {
			st, err := data.PaperStats(name)
			if err != nil {
				return err
			}
			fmt.Printf("  %s\n", st)
		}
		fmt.Printf("reproduction scale (1/%g):\n", *scale)
		for _, name := range data.PresetNames() {
			ds, err := mllibstar.PresetDataset(name, *scale)
			if err != nil {
				return err
			}
			fmt.Printf("  %s\n", ds.Stats())
		}
		return nil
	}

	if *preset == "" {
		flag.Usage()
		return fmt.Errorf("give -table1 or -preset")
	}
	ds, err := mllibstar.PresetDataset(*preset, *scale)
	if err != nil {
		return err
	}
	fmt.Printf("generated: %s\n", ds.Stats())
	if *out == "" {
		return nil
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := mllibstar.WriteLibSVM(f, ds); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}
