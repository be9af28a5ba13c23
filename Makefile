# Developer entry points. Everything runs from the repo root with no
# installation: PYTHONPATH=src is injected here.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke bench-e2e docs-check docs-check-run selftest serve-demo serve-smoke reshard-smoke mutation-smoke faultinject-smoke replicate-smoke remote-smoke family-smoke records-smoke equivalence

test:            ## tier-1 correctness suite (the merge gate)
	$(PYTHON) -m pytest -x -q

bench:           ## benchmarks (write reports to benchmarks/output/)
	$(PYTHON) -m pytest benchmarks -m bench -q

bench-smoke:     ## columnar codec bench at tiny scale (fast regression gate)
	BENCH_COLUMNAR_KEYS=20000 $(PYTHON) -m pytest \
	    benchmarks/test_bench_columnar_scale.py -m bench -q

bench-e2e:       ## end-to-end benchmark: every workload, traced per-layer waterfalls
	$(PYTHON) e2ebench/run.py --workload all --seed 1 --seconds 20 --trace 1

serve-smoke:     ## UDS listener smoke + block decoder, decode process, block accounting, slab routing, batch drain, closed-service store freeing and GIL-quiet lookup gates + short serve_flood and serve_paced runs (correctness, not speed)
	$(PYTHON) -m pytest tests/test_serve_net.py -q -k "smoke or BlockDecoder or DecodeWorker"
	$(PYTHON) -m pytest tests/test_serve_service.py -q -k "BlockAccounting or SlabRouting or BatchDrain or CloseFreesStore"
	$(PYTHON) -m pytest tests/test_hash_kernel.py -q -k GilQuietLookup
	$(PYTHON) e2ebench/run.py --workload serve_flood --seed 1 --seconds 3 --trace 0
	$(PYTHON) e2ebench/run.py --workload serve_paced --seed 1 --seconds 3 --trace 0

equivalence:     ## the backend equivalence matrix: every store answers like the flat reference, learning or cascading included
	$(PYTHON) -m pytest -q tests/test_engine_properties.py \
	    tests/test_hash_kernel.py tests/test_records_path.py \
	    tests/test_remote_v2.py tests/test_remote.py \
	    tests/test_backend_protocol.py tests/test_columnar_codec.py \
	    tests/test_deltalog.py tests/test_family_cascade.py

reshard-smoke:   ## reshard N->M->N byte-identity + verdict equivalence gate
	$(PYTHON) -m pytest tests/test_reshard.py -q

faultinject-smoke: ## crash/fault-injection sweep over the columnar write paths
	$(PYTHON) -m pytest tests/test_faultinject.py -q

replicate-smoke: ## one live leader->replica bootstrap/trickle/swap round trip
	$(PYTHON) -m pytest tests/test_replicate.py -q -k smoke

remote-smoke:    ## live fan-out: v2 protocol + column-path equivalence + fault sweep + wire-tax gate + a short remote_fanout run (correctness, not speed)
	$(PYTHON) -m pytest tests/test_remote_v2.py -q
	$(PYTHON) -m pytest tests/test_faultinject.py -q -k TestRemoteFaultSweep
	BENCH_REMOTE_PROBES=50000 BENCH_REMOTE_KEYS=5000 \
	    BENCH_REMOTE_MAX_WIRE_TAX=1.6 $(PYTHON) -m pytest \
	    benchmarks/test_bench_remote_fanout.py -m bench -q
	$(PYTHON) e2ebench/run.py --workload remote_fanout --seed 1 --seconds 3 --trace 0

family-smoke:    ## cascade property/unit tier + coarse-absorption bench
	$(PYTHON) -m pytest tests/test_family_cascade.py -q
	BENCH_FAMILY_EXECS=500 $(PYTHON) -m pytest \
	    benchmarks/test_bench_family_cascade.py -m bench -q

records-smoke:   ## record-path means/verdict equivalence + a short openworld run (correctness, not speed)
	$(PYTHON) -m pytest tests/test_records_path.py -q
	$(PYTHON) e2ebench/run.py --workload recognize_openworld --seed 1 --seconds 3 --trace 0

mutation-smoke:  ## delta-log write-throughput bench at tiny scale
	BENCH_MUTATION_KEYS=20000 BENCH_MUTATION_APPENDS=200 $(PYTHON) -m pytest \
	    benchmarks/test_bench_mutation.py -m bench -q

docs-check:      ## markdown cross-links + examples import health
	$(PYTHON) -m repro._util.doccheck

docs-check-run:  ## docs-check, plus actually execute every example
	$(PYTHON) -m repro._util.doccheck --run

selftest:        ## engine equivalence smoke check
	$(PYTHON) -m repro engine selftest

serve-demo:      ## async live-serving demo
	$(PYTHON) -m repro serve --demo
