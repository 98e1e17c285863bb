// Package c is the bottom of the fixture's import chain a → b → c.
package c

// T is the type whose identity must survive both import routes.
type T int
