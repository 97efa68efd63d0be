package main

// fillLayerMetrics sets every per-layer metric from the ledger of the
// workload's units (g) and, for the service workload, the ledger of its
// service-level session spans (svc, nil elsewhere). A layer the
// workload does not exercise reads 0.
func fillLayerMetrics(rep *report, g, svc *ledger) {
	for _, m := range perLayer {
		if _, ok := rep.values[m.name]; !ok {
			rep.values[m.name] = 0
		}
	}
	us := map[string]layer{
		"adversary.build_us":       lAdvBuild,
		"adversary.materialize_us": lAdvMaterialize,
		"adversary.graph_us":       lAdvGraph,
		"algo.send_us":             lAlgoSend,
		"algo.transition_us":       lAlgoTransition,
		"wire.encode_us":           lWireEncode,
		"wire.decode_us":           lWireDecode,
		"transport.broadcast_us":   lTransportBroadcast,
		"transport.gather_wait_us": lTransportGather,
		"runtime.setup_us":         lRuntimeSetup,
		"rounds.executor_us":       lRoundsExecutor,
		"sim.verify_us":            lSimExecute,
		"sim.check_us":             lSimCheck,
	}
	for name, l := range us {
		rep.values[name] = g.perUnitUs(l)
	}
	rep.values["runtime.barrier_us"] = g.perUnitUs(lRuntimeRun)
	rep.values["adversary.graph_calls"] = g.callsPerUnit(lAdvGraph)
	rep.values["algo.transition_calls"] = g.callsPerUnit(lAlgoTransition)
	rep.values["wire.decode_calls"] = g.callsPerUnit(lWireDecode)
	rep.values["trace.units"] = float64(g.units)
	if svc != nil {
		rep.values["service.admit_us"] = svc.perUnitUs(lServiceAdmit)
		rep.values["service.exec_ms"] = svc.perUnitUs(lServiceExec) / 1e3
	}
}

// checkLedger fails the run when the self times of a kind of unit miss
// more than ledgerTolerance of those units' summed spans. A single short
// unit can miss more when the scheduler preempts the benchmark between
// two spans; those are counted and reported, not failed.
func checkLedger(rep *report, g *ledger, kind string) {
	share := g.gapShare()
	rep.values["trace.ledger_max_err_pct"] = max(rep.values["trace.ledger_max_err_pct"], 100*share)
	rep.printf("ledger: self times miss %.3f%% of %d %s spans (tolerance %.0f%%); worst single span %.2f%%, %d spans over %.0f%%",
		100*share, g.units, kind, 100*ledgerTolerance, 100*g.worst, g.over, 100*ledgerTolerance)
	if share > ledgerTolerance {
		rep.fail("ledger: self times miss %.2f%% of the %s spans, more than %.0f%%", 100*share, kind, 100*ledgerTolerance)
	}
}
