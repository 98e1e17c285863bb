// Package b sits between a and c, and also imports the standard library.
package b

import (
	"strconv"

	"example.com/mod/c"
)

// F returns a c.T.
func F() c.T { return c.T(len(strconv.Itoa(7))) }
