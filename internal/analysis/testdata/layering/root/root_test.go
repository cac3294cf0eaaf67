// The root package's tests declare freely: benchmarks and end-to-end
// tests live there, importing the layers directly.
package repro

import "repro/internal/rs"

func newCode() (*rs.Code, error) { return rs.New(10, 4) }
