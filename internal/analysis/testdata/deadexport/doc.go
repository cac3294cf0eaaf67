// Golden module for the deadexport analyzer: its root package, whose
// tests count as callers the way repro's benchmarks do.
package mini
