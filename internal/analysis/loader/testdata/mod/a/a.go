// Package a type-checks only if b's c.T and its own c.T are one type.
package a

import (
	"example.com/mod/b"
	"example.com/mod/c"
)

// X is b.F's result held as a c.T.
var X c.T = b.F()
