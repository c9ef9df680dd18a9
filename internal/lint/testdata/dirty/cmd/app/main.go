// Command app is the dirty fixture's consumer: it reaches every export
// the other analyzers' cases declare, so only the deadexport cases in
// internal/exports and internal/orphan fire.
package main

import (
	"fmt"

	"fixture/internal/atomicio"
	"fixture/internal/core"
	"fixture/internal/exports"
	"fixture/internal/faultpoint"
	"fixture/internal/store"
	"fixture/internal/work"
)

func main() {
	h := &core.Hooks{}
	core.Balanced(h)
	core.LeakyEnd(core.JoinHooks(h, h))
	fmt.Println(core.DeferBalanced(h), core.LeakyReturn(h))
	fmt.Println(core.Clock(), core.Span(core.Allowed()), core.Roll(), core.SeededRoll(1))
	fmt.Println(core.Sum(nil), core.Waive(), len(faultpoint.Known), work.Step())
	fmt.Println(store.Save("a", nil), store.Move("a", "b"), store.Scratch("c", nil))
	fmt.Println(store.Open("d"))
	fmt.Println(atomicio.WriteFile("e", nil, 0o644))
	var c exports.Counter
	c.Inc()
	fmt.Println(exports.Live(), c)
}
