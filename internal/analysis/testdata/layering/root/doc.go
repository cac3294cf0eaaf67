// Golden input for the layering analyzer's empty-root rule: this file
// is parsed as package repro, the module root, whose non-test files
// carry the package doc and nothing else.
package repro

import "repro/internal/rs" // want "the module root declares nothing but its package doc"

// Codec is the kind of alias a facade re-exports.
type Codec = rs.Code // want "the module root declares nothing but its package doc"

// NewRS is the kind of forwarder a facade grows.
func NewRS(k, r int) (*rs.Code, error) { return rs.New(k, r) } // want "the module root declares nothing but its package doc"

//repolint:ignore layering golden example of a justified root declaration
const paper = "HotStorage 2013"
