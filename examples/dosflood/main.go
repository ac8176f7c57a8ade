// DoS flood: the paper's §3.1 motivation, measured.
//
// A verifier impersonator floods a battery-powered prover with forged
// attestation requests. Without request authentication every frame costs
// the prover a full ≈754 ms memory measurement; with a symmetric MAC each
// forgery dies after a sub-millisecond tag check. The example prints the
// duty cycle, energy burn and projected CR2032 lifetime side by side.
//
// This is the device-side simulation: no socket and no daemon run here.
// For the same flood over real TCP — the impersonator on the channel
// between an honest daemon and a networked agent — see examples/netflood.
//
//	go run ./examples/dosflood
package main

import (
	"fmt"
	"log"

	"proverattest/internal/core"
	"proverattest/internal/protocol"
	"proverattest/internal/sim"
)

func main() {
	log.SetFlags(0)
	const (
		rate = 10.0            // forged requests per second
		dur  = 60 * sim.Second // simulated flood window
	)
	fmt.Printf("flooding the prover with %.0f forged requests/s for %v\n\n", rate, dur)
	fmt.Printf("%-22s %9s %9s %8s %10s %14s\n",
		"request auth", "measured", "rejected", "duty", "energy", "CR2032 lasts")

	for _, kind := range []protocol.AuthKind{
		protocol.AuthNone,
		protocol.AuthSpeckCBCMAC,
		protocol.AuthHMACSHA1,
	} {
		res, err := core.RunFloodExperiment(kind, rate, dur)
		if err != nil {
			log.Fatalf("dosflood: %v", err)
		}
		fmt.Printf("%-22s %9d %9d %7.2f%% %8.4f J %11.1f days\n",
			kind, res.Measurements, res.AuthRejected,
			res.DutyCyclePct, res.EnergyJoules, res.LifetimeDays)
	}

	fmt.Println(`
reading the table:
  - with no authentication the prover saturates: every forged frame forces
    a full memory MAC, the duty cycle pins at ~100% and a coin cell dies in
    about a day — the paper's "attestation as denial-of-service";
  - with Speck or HMAC request authentication the same flood is shrugged
    off for hundreds of days, at the cost of one MAC check per frame.`)
}
