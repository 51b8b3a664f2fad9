"""Tests for the translation validator (repro.tv).

Three layers: canonicalization unit tests on purpose-built programs
(interchange and inline-suffix absorption), the seeded-miscompile
refutation (a wrong-reduction bug injected into a real lowering must
be REFUTED with a concrete divergent store), and the suite acceptance
gate (every accepted region of every model certifies PROVED, none
REFUTED, and every UNKNOWN names its blocking construct).
"""

import copy
import json

from repro.harness.cli import main as cli_main
from repro.ir.builder import (accum, aref, assign, block, local, pfor,
                              reduce_clause, sfor, v, wloop)
from repro.ir.program import (ArrayDecl, ParallelRegion, Program,
                              ScalarDecl)
from repro.ir.stmt import Assign
from repro.lint.suite import compile_port
from repro.analysis import run_suite
from repro.tv import (TV, CertStatus, canonicalize, summarize_stores,
                      validate_compiled, validate_port)


def make_program(regions, arrays, name="p"):
    return Program(name, arrays, [ScalarDecl("n", "int")], regions)


def canon_facts(body, program):
    return canonicalize(summarize_stores(body, program), program)


class TestCanonicalization:
    def test_identical_bodies_match(self):
        arrays = [ArrayDecl("a", ("n",), intent="in"),
                  ArrayDecl("b", ("n",), intent="out")]
        body = pfor("i", 0, v("n"), assign(aref("b", v("i")),
                                           aref("a", v("i")) * 2.0))
        program = make_program([ParallelRegion("r", body)], arrays)
        src = canon_facts(body, program)
        ker = canon_facts(copy.deepcopy(body), program)
        assert len(src) == len(ker) == 1
        assert src[0].match_key() == ker[0].match_key()

    def test_iterator_renaming_absorbs_alpha(self):
        # same store, different iterator spelling: canonical keys agree
        arrays = [ArrayDecl("a", ("n",), intent="out")]
        p1 = make_program([ParallelRegion(
            "r", pfor("i", 0, v("n"), assign(aref("a", v("i")), 1.0)))],
            arrays)
        p2 = make_program([ParallelRegion(
            "r", pfor("tid", 0, v("n"), assign(aref("a", v("tid")), 1.0)))],
            arrays)
        f1 = canon_facts(p1.regions[0].body, p1)
        f2 = canon_facts(p2.regions[0].body, p2)
        assert f1[0].match_key() == f2[0].match_key()

    def test_loop_interchange_absorbed(self):
        # b[j][i] = a[j][i] with the i/j nest swapped: the domain is a
        # set, and per-fact first-appearance renaming ignores nest order
        arrays = [ArrayDecl("a", ("n", "n"), intent="in"),
                  ArrayDecl("b", ("n", "n"), intent="out")]
        store = assign(aref("b", v("j"), v("i")), aref("a", v("j"), v("i")))
        nest_ij = pfor("i", 0, v("n"), sfor("j", 0, v("n"),
                                            copy.deepcopy(store)))
        nest_ji = pfor("j", 0, v("n"), sfor("i", 0, v("n"),
                                            copy.deepcopy(store)))
        program = make_program([ParallelRegion("r", nest_ij)], arrays)
        f_ij = canon_facts(nest_ij, program)
        f_ji = canon_facts(nest_ji, program)
        assert f_ij[0].match_key() == f_ji[0].match_key()

    def test_local_renaming_absorbs_inline_suffixes(self):
        # the inliner suffixes temporaries (__inlN); shared-position
        # renaming to l0/l1/... makes both spellings canonical-equal
        arrays = [ArrayDecl("a", ("n",), intent="in"),
                  ArrayDecl("b", ("n",), intent="out")]

        def body(tmp):
            return pfor("i", 0, v("n"), block(
                local(tmp, init=aref("a", v("i")) * 0.5),
                assign(aref("b", v("i")), v(tmp) + 1.0)))

        program = make_program([ParallelRegion("r", body("t"))], arrays)
        f1 = canon_facts(body("t"), program)
        f2 = canon_facts(body("t__inl3"), program)
        assert [f.match_key() for f in f1] == [f.match_key() for f in f2]
        assert f1[0].target == "l0" and f1[0].is_local

    def test_redundant_kernel_guard_discharged(self):
        # a kernel-style bounds guard implied by the loop domain
        # disappears during canonicalization, so the fact matches an
        # unguarded source store
        arrays = [ArrayDecl("a", ("n",), intent="out")]
        from repro.ir.builder import iff
        plain = pfor("i", 0, v("n"), assign(aref("a", v("i")), 1.0))
        guarded = pfor("i", 0, v("n"),
                       iff(v("i").lt(v("n")),
                           assign(aref("a", v("i")), 1.0)))
        program = make_program([ParallelRegion("r", plain)], arrays)
        f_plain = canon_facts(plain, program)
        f_guarded = canon_facts(guarded, program)
        assert f_guarded[0].guards == ()
        assert f_plain[0].match_key() == f_guarded[0].match_key()

    def test_while_loop_reported_blocking(self):
        arrays = [ArrayDecl("a", ("n",), intent="out")]
        body = wloop(v("go").gt(0), assign(aref("a", 0), 1.0))
        program = make_program([ParallelRegion("r", body)], arrays)
        summary = summarize_stores(body, program)
        assert summary.blocking and "while" in summary.blocking[0]


class TestSeededMiscompile:
    def _break_reduction(self, compiled, region, target):
        """Deep-copy ``compiled`` and strip the reduction op from the
        first kernel store to ``target`` in ``region`` — the classic
        wrong-reduction miscompile (accumulate becomes overwrite)."""
        bad = copy.deepcopy(compiled)

        def find(stmt):
            if isinstance(stmt, Assign) and stmt.op == "+" \
                    and getattr(stmt.target, "name", None) == target:
                return stmt
            for child in stmt.child_stmts():
                hit = find(child)
                if hit is not None:
                    return hit
            return None

        for kernel in bad.results[region].kernels:
            red = find(kernel.body)
            if red is not None:
                red.op = None
                return bad
        raise AssertionError(f"no reduction store to {target!r} found")

    def test_wrong_reduction_is_refuted_with_witness(self):
        port, compiled, _ = compile_port("CG", "OpenACC")
        bad = self._break_reduction(compiled, "rho0", "rho")
        certs = {c.region: c for c in validate_compiled(port.program, bad)}
        cert = certs["rho0"]
        assert cert.status is CertStatus.REFUTED
        assert cert.witness is not None
        assert "divergent store" in cert.detail
        assert "rho" in cert.detail
        # the witness carries concrete evaluations of both sides
        w = cert.witness.to_dict()
        assert w["source_store"] != w["kernel_store"]

    def test_pristine_compilation_still_proves(self):
        # the fixture above must not poison the memoized compilation
        port, compiled, _ = compile_port("CG", "OpenACC")
        certs = {c.region: c for c in
                 validate_compiled(port.program, compiled)}
        assert certs["rho0"].status is CertStatus.PROVED


class TestMissingStoreRefuted:
    def test_dropped_observable_store(self):
        # kernels that never write an array the source writes: REFUTED
        # via the empty-kernel-group witness
        from repro.ir.stmt import Block
        port, compiled, _ = compile_port("JACOBI", "OpenACC")
        bad = copy.deepcopy(compiled)
        name, result = next(iter(bad.results.items()))
        assert result.translated and result.kernels
        for kernel in result.kernels:
            kernel.body = Block(())
        certs = {c.region: c for c in validate_compiled(port.program, bad)}
        assert certs[name].status is CertStatus.REFUTED
        assert "never write" in certs[name].detail


class TestSuiteAcceptance:
    def test_suite_certificates(self):
        records = run_suite(TV)
        assert records, "suite produced no records"
        counts = {s: 0 for s in CertStatus}
        for rec in records:
            for cert in rec.certificates:
                counts[cert.status] += 1
                if cert.status is CertStatus.UNKNOWN:
                    assert cert.blocking, (
                        f"{rec.benchmark}/{rec.model}:{cert.region} is "
                        "UNKNOWN without naming a blocking construct")
        assert counts[CertStatus.REFUTED] == 0
        accepted = (counts[CertStatus.PROVED] + counts[CertStatus.REFUTED]
                    + counts[CertStatus.UNKNOWN])
        assert accepted > 0
        assert counts[CertStatus.PROVED] / accepted >= 0.80

    def test_validate_port_roundtrip(self):
        rec = validate_port("JACOBI", "OpenACC")
        assert rec.benchmark == "JACOBI" and rec.model == "OpenACC"
        assert rec.count(CertStatus.REFUTED) == 0
        assert all(c.to_dict()["status"] in
                   ("PROVED", "REFUTED", "UNKNOWN", "SKIPPED")
                   for c in rec.certificates)


class TestTvCli:
    def test_single_port(self, capsys):
        assert cli_main(["tv", "jacobi", "openacc"]) == 0
        out = capsys.readouterr().out
        assert "JACOBI / OpenACC" in out
        assert "PROVED" in out

    def test_json_payload(self, capsys):
        assert cli_main(["tv", "cg", "openacc", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "CG"
        statuses = {c["status"] for c in payload["certificates"]}
        assert statuses <= {"PROVED", "REFUTED", "UNKNOWN", "SKIPPED"}

    def test_all_matrix(self, capsys):
        assert cli_main(["tv", "--all"]) == 0
        out = capsys.readouterr().out
        assert "Proved/accepted" in out

    def test_missing_model_exits_2(self, capsys):
        assert cli_main(["tv", "jacobi"]) == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_model_exits_2(self, capsys):
        assert cli_main(["tv", "jacobi", "nonesuch"]) == 2
        assert capsys.readouterr().err
