// Command nested is a nested module, like perfbench: its calls keep
// exports alive.
package main

import (
	"fmt"

	"fixture/internal/exports"
)

func main() {
	fmt.Println(exports.Nested())
}
