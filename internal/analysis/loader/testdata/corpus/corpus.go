// Package corpus is loaded like an analyzer corpus: outside any pattern,
// importing the standard library and a package of its module.
package corpus

import (
	"fmt"

	"mllibstar/internal/par"
)

// S formats a pool result.
func S() string { return fmt.Sprint(par.Go(func() float64 { return 1 }).Join()) }

// Bad is not a string.
var Bad string = 1
