package data

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadLibSVM asserts the parser never panics on arbitrary input, that
// every label and value it accepts is finite, and that anything it accepts
// round-trips through the writer to an equivalent dataset.
func FuzzReadLibSVM(f *testing.F) {
	seeds := []string{
		"",
		"1 1:0.5 3:1\n0 2:2\n",
		"+1 1:1\n-1 2:-0.75\n",
		"# comment\n\n1 1:1\n",
		"1 1:1e300\n",
		"1 0:1\n",         // invalid: index < 1
		"1 2:1 1:1\n",     // invalid: descending indices within a row
		"1 1:1 1:2\n",     // invalid: duplicate index within a row
		"1 3:1 5:2 4:3\n", // invalid: descending after a valid prefix
		"x 1:1\n",         // invalid label
		"1 1:\n",          // empty value
		"1 :\n",           // empty both
		"1 1:nan\n",       // invalid: NaN value (ParseFloat accepts it)
		"nan 1:0.5\n",     // invalid: NaN label
		"1 3:inf\n",       // invalid: infinite value
		strings.Repeat("1 1:1 2:2 3:3\n", 5),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadLibSVM(strings.NewReader(input), "fuzz")
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for i, e := range ds.Examples {
			finite := !math.IsNaN(e.Label) && !math.IsInf(e.Label, 0)
			for _, v := range e.X.Val {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
			if !finite {
				t.Fatalf("example %d accepted with a non-finite label or value: %+v", i, e)
			}
		}
		var buf bytes.Buffer
		if err := WriteLibSVM(&buf, ds); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		back, err := ReadLibSVM(&buf, "fuzz")
		if err != nil {
			t.Fatalf("writer output rejected by reader: %v\noutput: %q", err, buf.String())
		}
		if len(back.Examples) != len(ds.Examples) {
			t.Fatalf("round trip changed example count: %d -> %d", len(ds.Examples), len(back.Examples))
		}
		for i := range ds.Examples {
			a, b := ds.Examples[i], back.Examples[i]
			if a.Label != b.Label || a.X.NNZ() != b.X.NNZ() {
				t.Fatalf("example %d changed: %+v -> %+v", i, a, b)
			}
		}
	})
}
