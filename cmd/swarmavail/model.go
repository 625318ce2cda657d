package main

import (
	"flag"
	"fmt"
	"io"

	"swarmavail/internal/core"
	"swarmavail/internal/experiments"
)

// runModel prints the Table-1 quantities, the eq. (9) busy period, the
// unavailability and patient-peer download time, the threshold-coverage
// variants, and the download-time-vs-K curve with its optimum:
//
//	swarmavail model -lambda 0.0167 -size 4000 -mu 50 -r 0.00111 -u 300 \
//	                 [-maxk 10] [-m 9] [-scaling scaled|constant] [-linger 0]
func runModel(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	tb := experiments.Sec43
	p := tb.Model(tb.Lambda, tb.SizeKB)
	fs.Float64Var(&p.Lambda, "lambda", p.Lambda, "peer arrival rate λ (1/s)")
	fs.Float64Var(&p.Size, "size", p.Size, "content size s (KB)")
	fs.Float64Var(&p.Mu, "mu", p.Mu, "effective swarm capacity μ (KB/s)")
	fs.Float64Var(&p.R, "r", p.R, "publisher arrival rate r (1/s)")
	fs.Float64Var(&p.U, "u", p.U, "mean publisher residence u (s)")
	var (
		maxK    = fs.Int("maxk", 10, "largest bundle size to evaluate")
		m       = fs.Int("m", tb.Threshold, "coverage threshold for §3.3.3 quantities")
		scaling = fs.String("scaling", "scaled", "bundle publisher scaling: scaled or constant")
		linger  = fs.Float64("linger", 0, "mean altruistic lingering 1/γ (s), 0 = selfish")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := p.Validate(); err != nil {
		return usageError{err}
	}
	if *maxK < 1 {
		return refuse("maxk", *maxK, "at least 1")
	}
	if *m < 0 {
		return refuse("m", *m, "non-negative")
	}
	var sc core.PublisherScaling
	switch *scaling {
	case "scaled":
		sc = core.ScaledPublisher
	case "constant":
		sc = core.ConstantPublisher
	default:
		return refuse("scaling", *scaling, "scaled or constant")
	}

	fmt.Fprintf(stdout, "swarm: λ=%g /s  s=%g KB  μ=%g KB/s  r=%g /s  u=%g s\n",
		p.Lambda, p.Size, p.Mu, p.R, p.U)
	fmt.Fprintf(stdout, "  service time s/μ:          %.1f s\n", p.ServiceTime())
	fmt.Fprintf(stdout, "  offered load ρ:            %.3f concurrent peers\n", p.Rho())
	fmt.Fprintf(stdout, "  busy period E[B] (eq.9):   %.4g s\n", p.BusyPeriod())
	fmt.Fprintf(stdout, "  unavailability P (eq.10):  %.4g\n", p.Unavailability())
	fmt.Fprintf(stdout, "  download time E[T] (eq.11): %.4g s\n", p.DownloadTime())
	fmt.Fprintf(stdout, "  threshold m=%d: P (eq.14) = %.4g, E[T] = %.4g s\n",
		*m, p.ThresholdUnavailability(*m), p.ThresholdDownloadTime(*m))
	fmt.Fprintf(stdout, "  single publisher (eq.16): P = %.4g, E[T] = %.4g s\n",
		p.SinglePublisherUnavailability(*m), p.SinglePublisherDownloadTime(*m))

	if *linger > 0 {
		l := core.Lingering{SwarmParams: p, Gamma: 1 / *linger}
		fmt.Fprintf(stdout, "  with lingering 1/γ=%g s: P = %.4g, E[T] = %.4g s\n",
			*linger, l.Unavailability(), l.DownloadTime())
	}

	best, curve := p.OptimalBundleSize(*maxK, sc)
	fmt.Fprintf(stdout, "\nbundling (%s publisher process):\n", sc)
	fmt.Fprintf(stdout, "  %-4s %-14s %-12s %-12s\n", "K", "E[T] (s)", "P", "-log P")
	for k := 1; k <= *maxK; k++ {
		b := p.Bundle(k, sc)
		marker := " "
		if k == best {
			marker = "*"
		}
		fmt.Fprintf(stdout, "%s %-4d %-14.4g %-12.4g %-12.4g\n",
			marker, k, curve[k-1], b.Unavailability(), p.AvailabilityGainExponent(k, sc))
	}
	fmt.Fprintf(stdout, "optimal bundle size: K=%d\n", best)
	return nil
}
