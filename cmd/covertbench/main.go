// Command covertbench transmits payloads over the three Ragnar covert
// channels (and the Pythia baseline) and reports Table V-style figures of
// merit. The full Table V grid is `ragnar table5`.
//
// Usage examples:
//
//	covertbench -channel intermr -nic cx5 -bits 512
//	covertbench -channel priority -nic cx4
//	covertbench -channel pythia -nic cx5 -bits 64
//	covertbench -channel intramr -nic cx6 -message "attack at dawn"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/thu-has/ragnar/internal/bitstream"
	"github.com/thu-has/ragnar/internal/covert"
	"github.com/thu-has/ragnar/internal/nic"
	"github.com/thu-has/ragnar/internal/pcap"
	"github.com/thu-has/ragnar/internal/pythia"
	"github.com/thu-has/ragnar/internal/sim"
	"github.com/thu-has/ragnar/internal/trace"
)

func main() {
	channel := flag.String("channel", "intermr", "priority, intermr, intramr, or pythia")
	nicName := flag.String("nic", "cx5", "adapter (cx4, cx5, cx6, cx5-iso)")
	bits := flag.Int("bits", 256, "random payload length (ignored with -message)")
	message := flag.String("message", "", "ASCII payload to transmit instead of random bits")
	seed := flag.Int64("seed", 1, "deterministic seed")
	pcapPath := flag.String("pcap", "", "capture the sender's wire traffic to this pcap file (intermr/intramr)")
	tracePath := flag.String("trace", "", "record the run's flight-recorder trace to this Chrome trace JSON file")
	flag.Parse()

	prof, ok := nic.ProfileByName(*nicName)
	if !ok {
		fatalf("unknown NIC %q (available: %s)", *nicName, strings.Join(nic.ProfileNames(), ", "))
	}
	payload, err := payloadBits(*bits, *message, *seed)
	if err != nil {
		fatalf("%v", err)
	}

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.NewRecorder(*channel+"/"+prof.Name, trace.DefaultCapacity)
		defer writeTrace(rec, *tracePath)
	}

	switch *channel {
	case "priority":
		if len(payload) > 32 {
			payload = payload[:32] // ~1 bps: keep virtual time sane
		}
		ch := covert.NewPriorityChannel(prof)
		ch.Trace = rec
		run := ch.Transmit(payload, *seed)
		report(run.Result, payload, run.Decoded, *message)
	case "intermr", "intramr":
		var ch *covert.ULIChannel
		var err error
		if *channel == "intermr" {
			ch, err = covert.NewInterMRChannel(prof, *seed)
		} else {
			ch, err = covert.NewIntraMRChannel(prof, *seed)
		}
		if err != nil {
			fatalf("%v", err)
		}
		if rec != nil {
			ch.Cluster.AttachRecorder(rec)
		}
		if *pcapPath != "" {
			f, err := os.Create(*pcapPath)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			w, err := pcap.NewWriter(f)
			if err != nil {
				fatalf("%v", err)
			}
			ch.TxConn.Client.NIC().Tap = func(at sim.Time, frame []byte) {
				if err := w.WritePacket(at, frame); err != nil {
					fatalf("%v", err)
				}
			}
			defer func() {
				fmt.Printf("pcap      %s (%d sender frames)\n", *pcapPath, w.Packets())
			}()
		}
		run, err := ch.Transmit(payload)
		if err != nil {
			fatalf("%v", err)
		}
		report(run.Result, payload, run.Decoded, *message)
	case "pythia":
		ch, err := pythia.New(prof, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		run, err := ch.Transmit(payload)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("channel   %s on %s\n", run.Result.Channel, run.Result.NIC)
		fmt.Printf("bandwidth %.1f Kbps raw, %.1f Kbps effective, %.2f%% errors\n",
			run.Result.BandwidthBps/1000, run.Result.EffectiveBps/1000, run.Result.ErrorRate*100)
	default:
		fatalf("unknown channel %q", *channel)
	}
}

// payloadBits is the payload to transmit: the message's bits when one is
// given, else bits random bits.
func payloadBits(bits int, message string, seed int64) (bitstream.Bits, error) {
	if message != "" {
		return bitstream.FromBytes([]byte(message)), nil
	}
	if bits < 1 {
		return nil, fmt.Errorf("-bits %d: need at least one bit", bits)
	}
	return bitstream.RandomBits(uint64(seed)|1, bits), nil
}

func report(r covert.Result, sent, got bitstream.Bits, message string) {
	fmt.Printf("channel   %s on %s\n", r.Channel, r.NIC)
	fmt.Printf("payload   %d bits\n", r.SentBits)
	fmt.Printf("bandwidth %.1f Kbps raw, %.1f Kbps effective\n", r.BandwidthBps/1000, r.EffectiveBps/1000)
	fmt.Printf("errors    %.2f%%\n", r.ErrorRate*100)
	if message != "" {
		fmt.Printf("sent      %q\n", message)
		fmt.Printf("received  %q\n", string(got.ToBytes()))
	} else if len(sent) <= 64 {
		fmt.Printf("sent      %s\n", sent)
		fmt.Printf("received  %s\n", got)
	}
}

// writeTrace exports the recorder to a Chrome trace JSON file. A channel
// without a recorder hook (pythia) leaves the recorder empty; the file is
// still valid.
func writeTrace(rec *trace.Recorder, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := trace.WriteChrome(f, rec); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("trace     %s (%d events)\n", path, rec.Len())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "covertbench: "+format+"\n", args...)
	os.Exit(1)
}
