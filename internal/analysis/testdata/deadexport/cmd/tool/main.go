// A program is a caller like any other.
package main

import "mini/internal/lib"

func main() {
	lib.UsedByCmd()
	var s lib.Shape = lib.T{}
	_ = s
}
