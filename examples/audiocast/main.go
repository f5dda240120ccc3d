// Audiocast: the §3.1 experiment as a runnable demo — audio broadcasting
// with in-router bandwidth adaptation.
//
// A source multicasts 16-bit stereo audio (176 kb/s) through a router
// onto a 10 Mb/s client segment. A load generator floods the segment in
// steps; the router ASP degrades the audio per the measured link load,
// and the client ASP restores packets so the unmodified player keeps
// playing. The program prints the per-phase audio bandwidth — the
// figure-6 staircase.
//
//	go run ./examples/audiocast
package main

import (
	"fmt"
	"log"
	"time"

	"planp.dev/planp/internal/apps/audio"
	"planp.dev/planp/internal/netsim/loadgen"
)

func main() {
	tb, err := audio.NewTestbed(audio.Options{Adaptation: audio.AdaptASP})
	if err != nil {
		log.Fatal(err)
	}

	// A compressed version of the paper's timeline: 0-20s quiet,
	// 20-40s heavy load, 40-60s light load.
	const (
		end   = 60 * time.Second
		heavy = 9_300_000
		light = 5_500_000
	)
	gen := &loadgen.Generator{
		Node: tb.LoadGen, Dst: tb.SinkAddr(), DstPort: 40000,
		Steps: []loadgen.Step{
			{At: 0, Bps: 0},
			{At: 20 * time.Second, Bps: heavy},
			{At: 40 * time.Second, Bps: light},
		},
	}
	gen.Start(tb.Sim, end)
	tb.Source.Start(end)

	fmt.Println("time(s)  audio kb/s  quality")
	for t := 2 * time.Second; t <= end; t += 2 * time.Second {
		tb.Sim.RunUntil(t)
		rate := tb.Wire.At(t) / 1000
		quality := "16-bit stereo"
		switch {
		case rate < 60:
			quality = "8-bit mono"
		case rate < 120:
			quality = "16-bit mono"
		}
		fmt.Printf("%6.0f  %9.1f  %s\n", t.Seconds(), rate, quality)
	}
	tb.Client.Finish(end)

	fmt.Printf("\nplayback gaps: %d (the client ASP kept every packet playable: %d unplayable)\n",
		tb.Client.Gaps.Gaps(), tb.Client.Unplayable)
	st := tb.RouterRT.Stats()
	fmt.Printf("router ASP processed %d packets with %d exceptions\n",
		st.Processed, st.Errors)
}
