"""One benchmark process: set-up timing, or one round of an in-process workload.

    python3 bench/worker.py setup MANIFEST
        import bigraded, load and validate every input; print the seconds.
    python3 bench/worker.py run MANIFEST RESULT [--check] [--trace STEM]
        run one round of towers-hodge or batch-small and write RESULT (JSON):
        per-operation wall and CPU seconds, an output digest and, with
        --check, the failed output checks.  --trace records spans.

run.py starts these with src/ on PYTHONPATH; each round is a fresh
interpreter, so module-level caches start empty in every round.
"""

import hashlib
import json
import sys
import time


def _load(manifest):
    """Every input of the workload as (item, complex, inner product), validated."""
    from bigraded import bicomplex, cli, hodge
    import inputs
    workload = manifest["workload"]
    if workload == "batch-small":
        with open(manifest["batch"]) as fh:
            items = json.load(fh)
    else:
        items = manifest["inputs"]
    loaded = []
    for item in items:
        ip = None
        if workload == "batch-small":
            c = bicomplex.complex_from_dict(json.loads(item["complex"]))
        elif workload == "towers-hodge":
            c = cli.load_input(item["uri"])
            with open(item["gram"]) as fh:
                ip = hodge.InnerProduct(inputs.gram_from_dict(json.load(fh)))
        else:
            c = cli.load_input(item["path"])
        if not bicomplex.validate(c).ok:
            raise SystemExit(f"{item['name']} is not a valid double complex")
        loaded.append((item, c, ip))
    return loaded


def setup(manifest):
    t0 = time.perf_counter()
    import bigraded.cli  # noqa: F401  (the import is part of what is timed)
    _load(manifest)
    return time.perf_counter() - t0


def tower_op(item, c, ip):
    from bigraded import bca, hodge, spectral
    ws = spectral.Workspace(c, checked=True)  # validated at load, as the CLI does
    out = {"degeneration_page": spectral.degeneration_page(c, ws),
           "pages": spectral.page_dims(c, 4, ws),
           "bca": bca.bca_dims(c, 4, ws),
           "verdicts": [bca.page_ddbar_verdict(c, r, ws, use_structure=False).verdict
                        for r in (1, 2, 3)]}
    tower = hodge.harmonic_tower(c, ip, 3, ws)
    cells = sorted(c.support())
    out["three_space"] = {(r, p, q): hodge.three_space_decomposition(c, ip, r, p, q, ws, tower)
                          for r in (1, 2, 3) for (p, q) in cells}
    out["bc_a_harmonic"] = {(r, p, q): hodge.bc_a_harmonic_spaces(c, ip, r, p, q, ws)
                            for r in (1, 2) for (p, q) in cells}
    out["harmonic_dims"] = {key: s.dim for key, s in tower.spaces.items()}
    return out


def tower_digest(out):
    parts = [out["degeneration_page"], sorted(out["pages"].e.items()),
             sorted(out["pages"].ebar.items()), sorted(out["bca"].bc.items()),
             sorted(out["bca"].a.items()), out["verdicts"], sorted(out["harmonic_dims"].items()),
             [(k, d.harmonic.basis.data, d.ok()) for k, d in sorted(out["three_space"].items())],
             [(k, b.basis.data, a.basis.data) for k, (b, a) in sorted(out["bc_a_harmonic"].items())]]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def small_op(item, _c, _ip):
    from bigraded import bca, bicomplex, pairing, spectral, zigzag
    c = bicomplex.complex_from_dict(json.loads(item["complex"]))
    if not bicomplex.validate(c).ok:
        raise ValueError("invalid double complex")
    ws = spectral.Workspace(c, checked=True)
    out = {"complex": c, "pages": spectral.page_dims(c, 3, ws), "bca": bca.bca_dims(c, 3, ws),
           "verdicts": [bca.page_ddbar_verdict(c, r, ws, use_structure=True).verdict
                        for r in (1, 2, 3)],
           "multiplicity": zigzag.multiplicity_solve(c, ws=ws)}
    cert = zigzag.certificate_from_dict(json.loads(item["certificate"]))
    out["certificate_obj"] = cert
    out["certificate"] = zigzag.verify_certificate(c, cert)
    total, form = pairing.sum_with_dual(c)
    val = pairing.validate_pairing(total, form)
    out["pairing"] = val
    ws2 = spectral.Workspace(total)
    induced = []
    for r in (1, 2):
        bb = pairing.induced_pairing_bc_bc(total, form, r, ws2, compare_verdict=val.perfect)
        induced.append((r, bb.nondegenerate, bb.verdict))
        for (p, q) in sorted(total.support()):
            er = pairing.induced_pairing_er(total, form, r, p, q, ws2)
            ba = pairing.induced_pairing_bc_a(total, form, r, p, q, ws2)
            induced.append((r, p, q, er.nondegenerate, er.well_defined,
                            ba.nondegenerate, ba.well_defined))
    out["induced"] = induced
    return out


def small_digest(out):
    mult = out["multiplicity"]
    parts = [sorted(out["pages"].e.items()), sorted(out["pages"].ebar.items()),
             sorted(out["bca"].bc.items()), sorted(out["bca"].a.items()), out["verdicts"],
             mult.status, sorted(repr(kv) for kv in (mult.inventory or {}).items()),
             out["certificate"].ok, out["pairing"].ok, out["pairing"].perfect, out["induced"]]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def run_round(manifest, check, trace_stem):
    import checks
    tracer = None
    if trace_stem:
        import spans
        tracer = spans.install()
    loaded = _load(manifest)
    if manifest["workload"] == "towers-hodge":
        op, digest = tower_op, tower_digest
    else:
        op, digest = small_op, small_digest
    ops = []
    for item, c, ip in loaded:
        rec = {"name": item["name"]}
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            out = op(item, c, ip)
        except Exception as exc:  # a failed operation is counted, not fatal
            rec.update(wall=time.perf_counter() - w0, cpu=time.process_time() - c0,
                       error=f"{type(exc).__name__}: {exc}")
            ops.append(rec)
            continue
        rec.update(wall=time.perf_counter() - w0, cpu=time.process_time() - c0,
                   digest=digest(out))
        if check:
            if tracer is not None:
                tracer.active[0] = False
            if manifest["workload"] == "towers-hodge":
                rec["fails"] = checks.check_tower(item["u"], item["v"], c, ip.grams, out)
            else:
                rec["fails"] = checks.check_small(
                    dict(item, complex_dict=json.loads(item["complex"])), out["complex"], out)
            if tracer is not None:
                tracer.active[0] = True
        del out
        ops.append(rec)
    result = {"ops": ops}
    if tracer is not None:
        tracer.dump(trace_stem)
        result["trace"] = tracer.layer_metrics()
    return result


def main(argv):
    mode, manifest_path = argv[0], argv[1]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if mode == "setup":
        print(json.dumps({"setup_s": setup(manifest)}))
        return 0
    result_path = argv[2]
    trace_stem = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    result = run_round(manifest, "--check" in argv, trace_stem)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
