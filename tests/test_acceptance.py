"""
Acceptance suite.  Each test implements one acceptance criterion at its
stated tolerance and prints one pass line (run with -s to see them inline;
`pytest -v` reports one PASSED/FAILED line per criterion either way).
"""
import hashlib
import random
import time
from collections import Counter
from math import gcd

from dehncover.cli import SLOPE_SCAN_BOUNDS, main
from dehncover.core import (
    LensSpace,
    Orbifold2,
    Slope,
    TorusKnot,
    euler_number,
    h1_order,
    is_loeschian,
    is_two_square,
    mirror,
    normalize,
    parse_seifert,
)
from dehncover.hyperbolic import (
    audit_knot,
    enumerate_short_slopes,
    normalize_cusp,
    normalized_cutoff,
    short_slope_box,
    vcsc_length_bound,
)
from dehncover.surgery import surgery_seifert_invariants
from dehncover.orbcover import oracle_covers, perm_cover_oracle
from dehncover.sfscover import decide_cover, torus_main_fastpath
from conftest import all_big_record, chi_fraction, fig8_record, six1_record
from test_core import random_seifert


def report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_table_reproduction(capsys):
    t0 = time.time()
    code = main(["verify-tables", "9"])
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert "DIFF" not in out
    lines = out.splitlines()
    targeted = [l for l in lines if l.startswith("TARGETED")]
    assert len(targeted) == 6 and all(l.endswith("OK") for l in targeted)
    documented = [l for l in lines if l.startswith("DOCUMENTED")]
    assert documented, "known summary-table discrepancies must be listed as documented"
    assert "FAIL" not in out and lines[-1].startswith("PASS")
    # the output is pinned byte for byte: a table row gained, lost or moved
    # changes the digest
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9aed0da9c557fb8f84e38b15c49403b2448fd59d6f746468391bde24f84a793a")
    assert elapsed < 600.0
    with capsys.disabled():
        report(1, f"verify-tables 9 clean, 6 targeted rows OK, "
                  f"{len(documented)} documented rows, {elapsed:.1f}s")


def test_criterion_2_chi_zero_degrees(capsys):
    expected = {
        (2, 3, 6): [n for n in range(1, 10) if is_loeschian(n)],
        (3, 3, 3): [n for n in range(1, 10) if is_loeschian(n)],
        (2, 4, 4): [n for n in range(1, 10) if is_two_square(n)],
    }
    assert expected[(2, 3, 6)] == [1, 3, 4, 7, 9]
    assert expected[(2, 4, 4)] == [1, 2, 4, 5, 8, 9]
    for base, want in expected.items():
        found = []
        for n in range(1, 10):
            small, _ = oracle_covers(Orbifold2(base), n)
            if base in small:
                found.append(n)
        assert found == want, (base, found)
    with capsys.disabled():
        report(2, "oracle self-cover degrees match the quadratic forms exactly")


def test_criterion_3_worked_examples(capsys):
    dec = decide_cover(TorusKnot(4, 7), Slope(105, 4), Slope(21, 1))
    assert dec.covers and dec.degree == 5

    dec = decide_cover(TorusKnot(2, 3), Slope(5, 1), Slope(45, 7))
    assert dec.covers and dec.degree == 72
    assert dec.certificate.orbifold_degree == 4
    assert dec.certificate.fiberwise_degree == 18
    assert dec.certificate.intermediate == parse_seifert("{9;(3,1),(3,2)}")

    dec = decide_cover(TorusKnot(2, 5), Slope(-2, 3), Slope(-22, 1))
    assert dec.covers and dec.degree == 11

    code = main(["cover", "4", "7", "105", "4", "21", "1"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[0] == "COVERS degree 5 (fiberwise 5 × orbifold 1)"
    with capsys.disabled():
        report(3, "degrees 5, 72 (= 4 x 18, intermediate {9;(3,1),(3,2)}) and 11 exact")


def test_criterion_4_surgery_conformance_scan(capsys):
    t0 = time.time()
    count = 0
    pmax, qmax = SLOPE_SCAN_BOUNDS
    for r in range(2, 8):
        for s in range(r + 1, 8):
            if gcd(r, s) != 1:
                continue
            K = TorusKnot(r, s)
            for p in range(-pmax, pmax + 1):
                for q in range(1, qmax + 1):
                    if gcd(p, q) != 1:
                        continue
                    n = abs(r * s * q - p)
                    if n < 2:
                        continue
                    M = surgery_seifert_invariants(K, Slope(p, q))
                    assert h1_order(M) == abs(p), (r, s, p, q)
                    assert sorted(a for a, _ in M.fibers) == sorted((r, s, n))
                    count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    with capsys.disabled():
        report(4, f"{count} surgeries conform (h1 = |p|, orders (r,s,n)) in {elapsed:.1f}s")


def test_criterion_5_fastpath_equivalence(capsys):
    # per knot, the reasons decide_cover gives (None for a cover): an early
    # exit that moves pairs between obstructions fails here
    admitted = {
        (4, 7): {"chi-mismatch": 376_454, "no-orbifold-cover": 4_924, "h1-divisibility": 1_607,
                 "reducibility": 1_240, None: 733, "rank": 619, "realization-failure": 36,
                 "gcd-condition": 16, "lens-divisibility": 12},
        (5, 6): {"chi-mismatch": 377_801, "no-orbifold-cover": 3_703, "h1-divisibility": 1_476,
                 "reducibility": 1_240, None: 717, "rank": 619, "gcd-condition": 41,
                 "realization-failure": 38, "lens-divisibility": 6},
        (5, 7): {"chi-mismatch": 379_196, "no-orbifold-cover": 2_474, "h1-divisibility": 1_434,
                 "reducibility": 1_240, None: 645, "rank": 619, "realization-failure": 31,
                 "lens-divisibility": 2},
        (6, 7): {"chi-mismatch": 379_420, "no-orbifold-cover": 2_468, "reducibility": 1_240,
                 "h1-divisibility": 1_177, None: 677, "rank": 619, "gcd-condition": 20,
                 "realization-failure": 18, "lens-divisibility": 2},
    }
    checked = 0
    pmax, qmax = SLOPE_SCAN_BOUNDS
    for (r, s), want_reasons in admitted.items():
        K = TorusKnot(r, s)
        slopes = [
            Slope(p, q)
            for p in range(-pmax, pmax + 1)
            for q in range(1, qmax + 1)
            if gcd(p, q) == 1
        ]
        reasons = Counter()
        for a in slopes:
            for b in slopes:
                dec = decide_cover(K, a, b)
                got = dec.degree if dec.covers else None
                assert torus_main_fastpath(K, a, b) == got, (r, s, a, b)
                reasons[dec.reason] += 1
                checked += 1
        assert reasons == want_reasons, (r, s, reasons)
    with capsys.disabled():
        report(5, f"fast path and general procedure agree on {checked} slope pairs")


def test_criterion_6_hyperbolic_bounds(capsys):
    assert abs(vcsc_length_bound() - 10.328942) < 1e-6

    for rec in (fig8_record(), six1_record(), all_big_record()):
        cusp = normalize_cusp(rec.cusp_shape)
        count = len(enumerate_short_slopes(cusp, normalized_cutoff()))
        assert count <= 32, (rec.name, count)

    rng = random.Random(13)
    violations = 0
    for _ in range(10_000):
        re_part = rng.uniform(-3.0, 3.0)
        im_part = rng.choice((1, -1)) * rng.uniform(0.2, 5.0)
        cusp = normalize_cusp(complex(re_part, im_part))
        k = rng.uniform(0.5, 12.0)
        a, b = short_slope_box(k, cusp)
        p = rng.choice((1, -1)) * (int(a) + rng.randint(1, 8))
        q = rng.randint(-int(b) - 8, int(b) + 8)
        if rng.random() < 0.5:
            p, q = rng.randint(-int(a) - 8, int(a) + 8), rng.choice((1, -1)) * (int(b) + rng.randint(1, 8))
        if abs(p) <= a and abs(q) <= b:
            continue
        if abs(p * cusp.m + q * cusp.l) <= k:
            violations += 1
    assert violations == 0
    with capsys.disabled():
        report(6, "length bound constant, <=32 short slopes, box sound over 10^4 trials")


def test_criterion_7_section7_eliminations(capsys):
    for rec, slopes, h1 in ((fig8_record(), {"5/1", "-5/1"}, 5), (six1_record(), {"1/1"}, 1)):
        rep = audit_knot(rec, tol=1e-4)
        assert rep.verified and not rep.survivors
        parity = [r for r in rep.rows if r.status == "eliminated" and "odd" in r.reason]
        assert {r.base_slope for r in parity} == slopes
        for r in parity:
            assert f"|H1| = {h1} is odd" in r.reason
        # every other short hyperbolic filling is eliminated by the volume bound
        others = [
            r for r in rep.rows
            if r.status == "eliminated" and r.base_slope not in slopes
        ]
        assert others and all("complement/2" in r.reason for r in others)
    with capsys.disabled():
        report(7, "4_1 and 6_1 audits end empty, final eliminations by odd-H1 parity")


def test_criterion_8_property_suites(capsys):
    rng = random.Random(20260811)
    # normalize idempotence, mirror involution, multiplicativity identities
    for _ in range(400):
        M = random_seifert(rng)
        N = normalize(M)
        assert normalize(N) == N
        assert mirror(mirror(M)) == N
        assert euler_number(mirror(M)) == -euler_number(M)
        assert h1_order(mirror(M)) == h1_order(M)
        prod = 1
        for a, _ in M.fibers:
            prod *= a
        assert abs(prod * euler_number(M)) == h1_order(M)
    # lens equivalence axioms for p <= 50
    for p in range(2, 51):
        units = [q for q in range(1, p) if gcd(q, p) == 1]
        canon = {q: LensSpace(p, q) for q in units}
        for q1 in units:
            orbit = {q1 % p, (-q1) % p, pow(q1, -1, p), (-pow(q1, -1, p)) % p}
            assert canon[q1] == canon[q1]
            for q2 in units:
                same = canon[q1] == canon[q2]
                assert same == (q2 % p in orbit)
                assert same == (canon[q2] == canon[q1])
    # Riemann-Hurwitz on every oracle witness over a sample of bases
    for base in [(2, 3, 7), (2, 3, 6), (3, 3, 3), (2, 4, 4), (2, 2, 5), (2, 3, 3)]:
        for n in range(1, 8):
            for orders in perm_cover_oracle(Orbifold2(base), n):
                assert chi_fraction(Orbifold2(orders)) == n * chi_fraction(Orbifold2(base))
    # Loeschian multiplicative closure below 200
    loes = [n for n in range(1, 201) if is_loeschian(n)]
    for a in loes:
        for b in loes:
            if a * b <= 200:
                assert is_loeschian(a * b)
    with capsys.disabled():
        report(8, "property suites pass (normalization, lens axioms, RH, closure)")
