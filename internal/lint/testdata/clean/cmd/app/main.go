// Command app is the clean fixture's consumer: it reaches every export,
// so the deadexport analyzer finds each a non-test caller.
package main

import (
	"fmt"

	"fixture/internal/core"
	"fixture/internal/faultpoint"
	"fixture/internal/store"
)

func main() {
	fmt.Println(core.Draw(1, 6), core.Sum(map[string]int{"a": 1}), len(faultpoint.Known))
	if err := core.Run(&core.Hooks{}); err != nil {
		panic(err)
	}
	if err := store.Save("out", nil); err != nil {
		panic(err)
	}
}
