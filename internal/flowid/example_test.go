package flowid_test

import (
	"fmt"

	"repro/internal/flowid"
)

// Example tracks a flow through the §6 lifecycle: it must stay above the
// size threshold for the stability window before the upstream announces
// it for negotiation, and it expires after going idle.
func Example() {
	reg := flowid.NewRegistry(1.0 /*threshold*/, 2 /*stable ticks*/, 3 /*idle timeout*/)
	sig := flowid.Signature{
		Src:     flowid.Prefix{Addr: 0x0A000000, Bits: 16},
		Dst:     flowid.Prefix{Addr: 0x0B010000, Bits: 16},
		Ingress: 1,
	}
	for tick := 0; tick < 4; tick++ {
		if reg.ObserveFlow(reg.Track(sig), 2.5, tick) {
			fmt.Printf("tick %d: flow %v announced for negotiation\n", tick, sig.Src)
		}
	}
	expired := reg.Expire(10)
	fmt.Printf("after idling: %d flow(s) timed out\n", len(expired))
	// Output:
	// tick 2: flow 10.0.0.0/16 announced for negotiation
	// after idling: 1 flow(s) timed out
}
