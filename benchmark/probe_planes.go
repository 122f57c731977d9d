package main

import vtxn "repro"

// probePlanes states what each always-on observability plane costs: the
// throughput of short hot_escrow_write windows as deployed against the same
// with the flight recorder, or the scrubber, switched off. The three
// configurations take turns so drift hits them alike.
func probePlanes(vals map[string]float64, in *probeInput, p plan) error {
	configs := []vtxn.Options{deployed(), flightOff(), scrubOff()}
	rates := make([][]float64, len(configs))
	for round := 0; round < 2; round++ {
		for i, opts := range configs {
			r := newRun(workloads[0], plan{rows: p.rows, setups: 1}, in.seed, false, in.outDir)
			r.opts = opts
			if err := r.setUp(); err != nil {
				return err
			}
			wr, _ := r.drive(r.writers, nil, p.probe/10, p.probe*6/10)
			err := r.db.Close()
			removeAll(r.dir)
			if err != nil {
				return err
			}
			rates[i] = append(rates[i], float64(wr.done)/wr.elapsed.Seconds())
		}
	}
	on := medianF(rates[0])
	vals["flightrec.cost_share"] = 1 - ratio(on, medianF(rates[1]))
	vals["scrub.cost_share"] = 1 - ratio(on, medianF(rates[2]))
	return nil
}
