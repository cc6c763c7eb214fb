import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from qmono import acceptance, cli, identities, macdonald, positivity, specialize
from qmono.algebra import FactoredFraction, Polynomial
from qmono.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    dumps,
    main,
    parse_partition,
    parse_substitutions,
    thread_count,
)
from qmono.errors import UsageError
from qmono.partitions import Partition, partitions_up_to, subset_sum_counts
from qmono.specialize import UNIVERSE_ABQ


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def fake_pool(monkeypatch):
    """Put an in-process stand-in for ``multiprocessing.Pool`` in its place,
    one that runs the chunks it is sent in reverse.  Returns its record: the
    pool sizes asked for, and the chunks of the last ``imap_unordered`` in
    the order sent."""
    record = types.SimpleNamespace(sizes=[], dispatched=[])

    class ReversingPool:
        def __init__(self, size):
            record.sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, chunks):
            record.dispatched = list(chunks)
            return [fn(chunk) for chunk in reversed(record.dispatched)]

    monkeypatch.setattr(multiprocessing, "Pool", ReversingPool)
    return record


class TestParsing:
    def test_partition(self):
        assert parse_partition("2,1") == Partition((2, 1))
        assert parse_partition("") == Partition(())
        with pytest.raises(UsageError):
            parse_partition("1,2")
        with pytest.raises(UsageError):
            parse_partition("x")

    def test_substitutions(self):
        subs = parse_substitutions("a=1,b=q^4")
        assert subs["a"].is_constant()
        assert subs["b"] == Polynomial.variable(UNIVERSE_ABQ, "q", 4)
        with pytest.raises(UsageError):
            parse_substitutions("z=1")
        with pytest.raises(UsageError):
            parse_substitutions("a")

    def test_pool_is_clamped_to_cpu_count(self, monkeypatch, fake_pool):
        monkeypatch.setenv("QMONO_THREADS", "64")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert cli._parallel_map(abs, range(-10, 0)) == list(range(10, 0, -1))
        assert fake_pool.sizes == [3]
        # Without an affinity mask the CPU count bounds the pool.
        monkeypatch.delattr(cli.os, "sched_getaffinity")
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        assert cli._parallel_map(abs, range(-10, 0)) == list(range(10, 0, -1))
        assert fake_pool.sizes == [3, 3]
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert cli._parallel_map(abs, [-1, -2]) == [1, 2]
        assert fake_pool.sizes == [3, 3]

    def test_pool_deals_the_last_listed_item_first(self, monkeypatch, fake_pool):
        monkeypatch.setenv("QMONO_THREADS", "2")
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        items = [f"item {i}" for i in range(20)]
        assert cli._parallel_map(str.upper, items) == [item.upper() for item in items]
        # Round robin from the end into 4 * 2 chunks: the first chunk sent
        # starts with the last-listed item.
        assert [[index for index, _ in chunk] for chunk in fake_pool.dispatched] == [
            [19 - k, 11 - k, 3 - k] if k < 4 else [19 - k, 11 - k] for k in range(8)
        ]

    @pytest.mark.parametrize("identity", sorted(acceptance.VERIFY_FAMILIES))
    def test_instances_are_listed_smallest_first(self, identity):
        # The pool's largest-first dispatch reads the listing order.
        family = acceptance.VERIFY_FAMILIES[identity]
        tasks = family.instances(family.cap)
        if family.size_flag == "n":
            sizes = [task if isinstance(task, int) else task[0] for task in tasks]
        else:
            sizes = [sum(task) for task in tasks]
        assert sizes == sorted(sizes)

    def test_partitions_are_listed_by_weight(self):
        weights = [mu.weight for mu in partitions_up_to(10)]
        assert weights == sorted(weights)

    def test_thread_count(self, monkeypatch):
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        assert thread_count() == 1
        monkeypatch.setenv("QMONO_THREADS", "4")
        assert thread_count() == 4
        monkeypatch.setenv("QMONO_THREADS", "zero")
        with pytest.raises(UsageError):
            thread_count()


class TestSpecializeCommand:
    def test_column_two_golden(self, capsys):
        code, out, _ = run(capsys, "specialize", "--mu", "1,1", "--form", "theorem1")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "(-a * b + b^2 + a^2 * q - a * b * q) / ((1 - q) * (1 - q^2))"
        record = json.loads(lines[1])
        assert record["partition"] == [1, 1]
        assert record["denominator_factors"] == [["1 - q", 1], ["1 - q^2", 1]]

    def test_single_part(self, capsys):
        code, out, _ = run(capsys, "specialize", "--mu", "1")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "(a - b) / (1 - q)"

    def test_substitution(self, capsys):
        code, out, _ = run(
            capsys, "specialize", "--mu", "1", "--subst", "a=1,b=q^3"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "(1 - q^3) / (1 - q)"

    def test_substitution_past_the_narrow_field_width(self, capsys):
        # Degrees up to 210,003 take the kernel past its 16-bit field width;
        # the text is the one the tuple-keyed kernel printed.
        code, out, _ = run(
            capsys, "specialize", "--mu", "2,1", "--subst", "a=1,b=q^70000"
        )
        assert code == EXIT_OK
        assert out == (
            "(q + q^2 - 2 * q^3 - q^70000 + q^70003 - q^140000 + q^140003"
            " + 2 * q^210000 - q^210001 - q^210002)"
            " / ((1 - q) * (1 - q^2) * (1 - q^3))\n"
            '{"denominator_factors": [["1 - q", 1], ["1 - q^2", 1], ["1 - q^3", 1]],'
            ' "numerator": "q + q^2 - 2 * q^3 - q^70000 + q^70003 - q^140000 + q^140003'
            ' + 2 * q^210000 - q^210001 - q^210002", "partition": [2, 1]}\n'
        )

    def test_substitution_far_past_any_dense_row(self, capsys):
        # The substitution reaches exponents near 8 * 10^11, whose rows in q
        # no dense product may ever build; the digest is that of the text the
        # kernel printed before products in q went by rows.
        code, out, _ = run(
            capsys, "specialize", "--mu", "3,2,2,1", "--subst", "a=q^99999999999"
        )
        assert code == EXIT_OK
        assert out.startswith("(12 * b^8 - 9 * b^8 * q - 6 * b^8 * q^2")
        assert out.endswith('12 * q^800000000020", "partition": [3, 2, 2, 1]}\n')
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6103f3d578739bb8616e4a52e184c006055388cd5caeb4211605fc9e9412ab19"
        )

    def test_oracle_direct_requires_N(self, capsys):
        code, _, err = run(
            capsys, "specialize", "--mu", "1", "--form", "oracle-direct"
        )
        assert code == EXIT_USAGE
        assert "oracle-N" in err

    def test_resource_cap_exit_code(self, capsys, monkeypatch, cold_memos):
        # (1^35), whose denominator degree 630 is over the degree cap, and
        # five distinct parts of degree 6,315: refused before any work.  The
        # power-sum oracle, which peels through the same function, also
        # refuses (1^9), longer than its permutation cap.  (1^34), of degree
        # 595, is admitted.
        calls = []
        monkeypatch.setattr(specialize, "peel_polynomial", lambda mu, *a: calls.append(mu))
        for form in ("theorem1", "theorem3", "oracle-powersum"):
            for mu in (",".join(["1"] * 35), "97,89,83,79,73"):
                code, out, err = run(capsys, "specialize", "--mu", mu, "--form", form)
                assert code == EXIT_RESOURCE
                assert out == ""
                assert "cap" in err
        code, out, err = run(
            capsys, "specialize", "--mu", "1,1,1,1,1,1,1,1,1", "--form", "oracle-powersum"
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "permutation cap" in err
        assert calls == []
        monkeypatch.undo()
        code, out, _ = run(capsys, "specialize", "--mu", ",".join(["1"] * 34))
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[-1])["partition"] == [1] * 34

    def test_rearrangements_over_cap_are_refused_before_any_work(
        self, capsys, monkeypatch, cold_memos
    ):
        # Seven distinct parts and a repeated one have 192 peel states, over
        # the cap of 128.
        calls = []
        monkeypatch.setattr(specialize, "peel_polynomial", lambda mu, *a: calls.append(mu))
        code, out, err = run(capsys, "specialize", "--mu", "7,6,5,4,3,2,1,1")
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert calls == []
        # The power-sum oracle obeys the same state cap, before its block
        # peel starts.
        code, out, err = run(
            capsys, "specialize", "--mu", "7,6,5,4,3,2,1,1", "--form", "oracle-powersum"
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert calls == []

    def test_oracle_direct_alphabet_cap(self, capsys):
        code, out, err = run(
            capsys, "specialize", "--mu", "2,1", "--form", "oracle-direct", "--oracle-N", "9"
        )
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err


class TestVerifyCommand:
    def test_littlewood_sweep(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "prop6", "--max-weight", "6"
        )
        assert code == EXIT_OK
        assert "0 failures" in out

    def test_a_failed_check_exits_1_and_names_its_instance(self, capsys, monkeypatch):
        family = acceptance.VERIFY_FAMILIES["thm6"]
        monkeypatch.setitem(
            acceptance.VERIFY_FAMILIES,
            "thm6",
            dataclasses.replace(family, check=lambda n, memo: n != 2),
        )
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        code, out, _ = run(capsys, "verify", "--identity", "thm6", "--n", "3", "--format", "json")
        assert code == EXIT_VERIFY_FAILED
        doc = json.loads(out)
        assert doc["instances_checked"] == 3
        assert doc["failures"] == [
            {"instance": "n=2", "expected": "identity holds", "actual": "it does not"}
        ]
        code, out, _ = run(capsys, "verify", "--identity", "thm6", "--n", "3")
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert lines[:3] == ["ok  n=1", "FAIL  n=2", "ok  n=3"]
        assert re.fullmatch(r"verify thm6: 3 instances, 1 failures, \d+\.\ds", lines[3])

    def test_json_round_trip_is_byte_identical(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "thm6", "--n", "2", "--format", "json"
        )
        assert code == EXIT_OK
        line = out.strip()
        assert dumps(json.loads(line)) == line

    def test_unknown_identity_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", "thm9"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize(
        "identity, flag, size, labels",
        [
            ("thm6", "--n", 2, ["n=1", "n=2"]),
            ("thm7", "--n", 2, ["n=1", "n=2"]),
            ("prop5", "--max-weight", 3,
             ["mu=[1]", "mu=[2]", "mu=[1, 1]", "mu=[3]", "mu=[2, 1]", "mu=[1, 1, 1]"]),
            ("prop6", "--max-weight", 3,
             ["mu=[1]", "mu=[2]", "mu=[1, 1]", "mu=[3]", "mu=[2, 1]", "mu=[1, 1, 1]"]),
            ("prop7", "--n", 3, ["n=1", "n=2", "n=3"]),
            ("prop8", "--n", 3, ["n=1", "n=2", "n=3"]),
            ("appendix", "--n", 2,
             [f"n=2 relation={r} side={s}" for r in (13, 14) for s in ("L", "R")]),
        ],
        ids=["thm6", "thm7", "prop5", "prop6", "prop7", "prop8", "appendix"],
    )
    def test_every_identity(self, capsys, identity, flag, size, labels):
        code, out, _ = run(
            capsys, "verify", "--identity", identity, flag, str(size), "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["instances_checked"] > 0
        assert [res["instance"] for res in doc["results"]] == labels
        assert all(res["ok"] for res in doc["results"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["--identity", "thm6", "--n", "0"],
            ["--identity", "appendix", "--n", "1"],
            ["--identity", "prop5", "--max-weight", "0"],
        ],
        ids=["thm6", "appendix", "prop5"],
    )
    def test_zero_instances_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "no instance" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--identity", "prop5", "--n", "3"], "does not apply"),
            (["verify", "--identity", "thm6", "--max-weight", "2"], "does not apply"),
            (
                ["specialize", "--mu", "2,1", "--form", "theorem1", "--oracle-N", "50"],
                "does not apply",
            ),
            (["positivity", "--mu", "2,1", "--max-weight", "0"], "does not apply"),
            (["positivity", "--mu", "", "--max-weight", "2"], "does not apply"),
            (["specialize", "--mu", "2,1", "--subst", "a=1,a=2"], "bound twice"),
            (["specialize", "--mu", "2,1", "--subst", "a=q^"], "cannot parse exponent"),
            (["specialize", "--mu", "2,1", "--subst", ""], "bad substitution"),
        ],
        ids=[
            "prop5-n",
            "thm6-max-weight",
            "specialize-oracle-N",
            "positivity-mu-max-weight",
            "positivity-empty-mu-max-weight",
            "specialize-subst-twice",
            "specialize-subst-empty-exponent",
            "specialize-subst-empty",
        ],
    )
    def test_flag_the_family_does_not_read_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    @pytest.mark.parametrize(
        "identity, count", [("thm6", 4), ("prop5", 89)], ids=["n", "max-weight"]
    )
    def test_omitted_size_flag_takes_its_default(self, capsys, monkeypatch, identity, count):
        family = acceptance.VERIFY_FAMILIES[identity]
        monkeypatch.setitem(
            acceptance.VERIFY_FAMILIES,
            identity,
            dataclasses.replace(family, check=lambda task, memo: True),
        )
        code, out, _ = run(capsys, "verify", "--identity", identity, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["instances_checked"] == count

    @pytest.mark.parametrize(
        "argv",
        [
            ["--identity", "prop8", "--n", "8"],
            ["--identity", "thm6", "--n", "6"],
            ["--identity", "appendix", "--n", "6"],
            ["--identity", "thm6", "--n", "5"],
            ["--identity", "appendix", "--n", "5"],
            ["--identity", "prop5", "--max-weight", "19"],
            ["--identity", "prop6", "--max-weight", "33"],
        ],
        ids=["prop8", "thm6", "appendix", "thm6-n5", "appendix-n5", "prop5-w19", "prop6-w33"],
    )
    def test_cap_is_checked_before_any_work(self, capsys, monkeypatch, argv):
        identity = argv[1]
        calls = []
        family = acceptance.VERIFY_FAMILIES[identity]
        monkeypatch.setitem(
            acceptance.VERIFY_FAMILIES,
            identity,
            dataclasses.replace(
                family,
                instances=lambda size: calls.append(size) or family.instances(size),
                check=lambda task, memo: calls.append(task) or True,
            ),
        )
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert calls == []

    def test_appendix_builds_each_side_once(self, capsys, monkeypatch, cold_memos):
        # n = 4 makes 24 side requests for 8 distinct (n, side) pairs.
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        code, _, _ = run(capsys, "verify", "--identity", "appendix", "--n", "4")
        assert code == EXIT_OK
        assert identities._symmetrized.cache_info().misses == 8

    def test_serial_appendix_decides_each_distinct_check_once(
        self, capsys, monkeypatch, cold_memos
    ):
        # Up to the cap the cycle side is the prefix side term for term, so
        # each side=R instance takes the verdict of its side=L twin: six
        # recurrence checks, and at n = 2 one check of f_1 per relation.
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        requests, decided = [], []
        side, eq = identities.symmetrized_side, identities.frac_eq
        monkeypatch.setattr(
            identities, "symmetrized_side", lambda n, s: requests.append((n, s)) or side(n, s)
        )
        monkeypatch.setattr(identities, "frac_eq", lambda f, g: decided.append(1) or eq(f, g))
        argv = ("verify", "--identity", "appendix", "--n", "4", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["instances_checked"] == 12
        assert len(decided) == 8
        assert len(requests) == 24
        assert identities._symmetrized.cache_info().misses == 8

    @pytest.mark.parametrize("warm_verdicts", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("wrong", ["R", "L"])
    def test_a_wrong_appendix_side_fails_its_own_instances(
        self, capsys, monkeypatch, cold_memos, wrong, warm_verdicts
    ):
        # The recurrences are linear, so a doubled side still satisfies
        # them; a side scaled by n does not.  Warm, the verdicts of the
        # right sides are already kept when the wrong side is built.
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        argv = ("verify", "--identity", "appendix", "--n", "3", "--format", "json")
        if warm_verdicts:
            assert run(capsys, *argv)[0] == EXIT_OK
            identities._symmetrized.cache_clear()
        form = {"L": identities.SIDE_LEFT, "R": identities.SIDE_CYCLE}[wrong]
        peeled = identities._peeled

        def scaled(f, X, Y):
            value = peeled(f, X, Y)
            return value * len(X) if f == form else value

        monkeypatch.setattr(identities, "_peeled", scaled)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        results = json.loads(out)["results"]
        assert len(results) == 8
        for result in results:
            assert result["ok"] != result["instance"].endswith(f"side={wrong}"), result

    @pytest.mark.parametrize("threads", [None, "2"], ids=["serial", "pooled"])
    @pytest.mark.parametrize("wrong", ["R", "L"])
    def test_a_doubled_appendix_side_fails_its_base_instances(
        self, capsys, monkeypatch, cold_memos, wrong, threads
    ):
        # A side doubled at every n still satisfies the linear recurrences;
        # only the n = 2 check of f_1 against (y1 - x1)/(1 - x1) sees it.
        if threads is None:
            monkeypatch.delenv("QMONO_THREADS", raising=False)
        else:
            monkeypatch.setenv("QMONO_THREADS", threads)
        form = {"L": identities.SIDE_LEFT, "R": identities.SIDE_CYCLE}[wrong]
        peeled = identities._peeled

        def doubled(f, X, Y):
            value = peeled(f, X, Y)
            return value * 2 if f == form else value

        monkeypatch.setattr(identities, "_peeled", doubled)
        argv = ("verify", "--identity", "appendix", "--n", "3", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        results = json.loads(out)["results"]
        assert len(results) == 8
        failed = sorted(result["instance"] for result in results if not result["ok"])
        assert failed == [f"n=2 relation={r} side={wrong}" for r in (13, 14)]

    def test_pooled_appendix_matches_sequential(self, capsys, monkeypatch):
        # The serial run goes first, so the workers fork from a warm memo;
        # test_pooled_appendix_with_a_cold_memo forks them from a cold one.
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        argv = ("verify", "--identity", "appendix", "--n", "3", "--format", "json")
        code, seq, _ = run(capsys, *argv)
        assert code == EXIT_OK
        monkeypatch.setenv("QMONO_THREADS", "2")
        code, par, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(seq)["results"] == json.loads(par)["results"]

    def test_pooled_appendix_with_a_cold_memo(self, capsys, monkeypatch):
        argv = ("verify", "--identity", "appendix", "--n", "4", "--format", "json")
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        code, seq, _ = run(capsys, *argv)
        assert code == EXIT_OK
        identities._symmetrized.cache_clear()
        identities._verdicts.clear()
        monkeypatch.setenv("QMONO_THREADS", "2")
        code, par, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(seq)["results"] == json.loads(par)["results"]

    def test_pooled_appendix_sends_each_side_to_one_chunk(self, capsys, monkeypatch, fake_pool):
        monkeypatch.setenv("QMONO_THREADS", "2")
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        family = acceptance.VERIFY_FAMILIES["appendix"]
        monkeypatch.setitem(
            acceptance.VERIFY_FAMILIES,
            "appendix",
            dataclasses.replace(family, check=lambda task, memo: True),
        )
        code, out, _ = run(
            capsys, "verify", "--identity", "appendix", "--n", "4", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["instances_checked"] == 12
        sides = [
            sorted({task[2] for _, group in chunk for task in group})
            for chunk in fake_pool.dispatched
        ]
        assert sorted(sides) == [["L"], ["R"]]
        assert sum(len(group) for chunk in fake_pool.dispatched for _, group in chunk) == 12

    @pytest.mark.parametrize("identity", ["prop5", "prop6"])
    def test_pooled_peel_groups_go_to_one_chunk_each(
        self, capsys, monkeypatch, fake_pool, identity
    ):
        # prop5's peel states depend on the partition length, prop6's on
        # nothing: one group per length, and all of prop6 in one group,
        # which needs no pool.
        monkeypatch.setenv("QMONO_THREADS", "2")
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ("verify", "--identity", identity, "--max-weight", "4", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(out)["instances_checked"] == 5 + 3 + 2 + 1
        lengths = sorted(
            sorted({len(task) for _, group in chunk for task in group})
            for chunk in fake_pool.dispatched
        )
        assert lengths == ([[1], [2], [3], [4]] if identity == "prop5" else [])
        assert fake_pool.sizes == ([2] if identity == "prop5" else [])

    def test_no_peel_state_outlives_a_sweep(self, capsys, monkeypatch):
        # Each share group peels into a fresh memo of its own, so a second
        # sweep in the same process starts from empty memos again: one memo
        # per length, and none is handed to two sweeps.
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        identity = acceptance.constant_identity
        sweeps = []

        def recording(mu, kind, memo):
            if id(memo) not in sweeps[-1]:
                assert memo == {}
                sweeps[-1][id(memo)] = memo
            return identity(mu, kind, memo)

        monkeypatch.setattr(acceptance, "constant_identity", recording)
        for _ in range(2):
            sweeps.append({})
            assert run(capsys, "verify", "--identity", "prop5", "--max-weight", "6")[0] == EXIT_OK
            assert len(sweeps[-1]) == 6
            assert all(memo for memo in sweeps[-1].values())
        assert not sweeps[0].keys() & sweeps[1].keys()

    def test_parallel_matches_sequential(self, capsys, monkeypatch):
        code, seq, _ = run(
            capsys, "verify", "--identity", "prop5", "--max-weight", "4",
            "--format", "json",
        )
        assert code == EXIT_OK
        monkeypatch.setenv("QMONO_THREADS", "2")
        code, par, _ = run(
            capsys, "verify", "--identity", "prop5", "--max-weight", "4",
            "--format", "json",
        )
        assert code == EXIT_OK
        assert json.loads(seq)["results"] == json.loads(par)["results"]


class TestExpandCommand:
    def test_json_structure(self, capsys):
        code, out, _ = run(
            capsys, "expand", "--n", "2", "--basis", "monomial", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["basis"] == "monomial"
        assert [e["mu"] for e in doc["entries"]] == [[2], [1, 1]]
        assert dumps(doc) == out.strip()

    def test_deterministic_across_runs(self, capsys):
        args = ("expand", "--n", "3", "--basis", "deformed-h", "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "1", "--basis", "power")
        assert code == EXIT_OK
        assert out.strip() == "(1)  (1 - t) / (1 - q)"

    @pytest.mark.parametrize("basis", ["complete", "elementary", "deformed-h", "deformed-e"])
    def test_length_over_cap_is_refused_before_any_work(self, capsys, monkeypatch, basis):
        # These bases evaluate one specialization per partition and are
        # capped at degree 13, so degree 14 is refused before the first
        # coefficient is evaluated.
        calls = []
        monkeypatch.setattr(macdonald, "spec_value_at", lambda *a: calls.append(a))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "expand", "--n", "14", "--basis", basis)
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert f" {basis} " in err  # the name the command line takes
        assert calls == []

    @pytest.mark.parametrize("basis", ["power", "monomial"])
    def test_bases_without_rearrangement_sums_skip_the_length_cap(self, capsys, basis):
        code, out, _ = run(capsys, "expand", "--n", "9", "--basis", basis)
        assert code == EXIT_OK
        assert len(out.splitlines()) == 30  # the partitions of 9

    @pytest.mark.parametrize("basis", ["power", "monomial"])
    def test_degree_over_cap_is_refused_before_any_work(self, capsys, monkeypatch, basis):
        # These bases are capped at degree 20, checked before any partition.
        calls = []
        monkeypatch.setattr(macdonald, "partitions_of", lambda n: calls.append(n) or [])
        code, out, err = run(capsys, "expand", "--n", "21", "--basis", basis)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert calls == []


class TestPositivityCommand:
    def test_single_partition(self, capsys):
        code, out, _ = run(
            capsys, "positivity", "--mu", "2,1", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        res = doc["results"][0]
        assert res["H"] == "1 + 2 * q + 2 * t + q * t"
        assert res["identity_holds"] is True

    def test_empty_mu_is_the_empty_partition(self, capsys):
        # As in specialize, --mu "" names the empty partition, not a sweep.
        code, out, _ = run(capsys, "positivity", "--mu", "", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["instances_checked"] == 1
        assert [res["mu"] for res in doc["results"]] == [[]]
        assert doc["failures"] == []

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "positivity", "--max-weight", "4")
        assert code == EXIT_OK
        assert "0 failures" in out

    def test_zero_instances_is_usage_error(self, capsys):
        code, out, err = run(capsys, "positivity", "--max-weight", "0")
        assert code == EXIT_USAGE
        assert out == ""
        assert "no partition" in err

    def test_weight_over_length_cap_is_refused_before_any_work(self, capsys, monkeypatch):
        # (1^9) is longer than the positivity cap, so weight 9 is refused
        # before partitions are enumerated or any report is built.
        calls = []
        monkeypatch.setattr(cli, "positivity_report", lambda mu: calls.append(mu))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "positivity", "--max-weight", "9")
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert calls == []

    def test_rearrangements_over_cap_are_refused_before_any_work(self, capsys, monkeypatch):
        # Seven distinct parts have 128 peel states, over the cap of 64.
        calls = []
        monkeypatch.setattr(positivity, "peel_polynomial", lambda mu, *a: calls.append(mu))
        code, out, err = run(capsys, "positivity", "--mu", "7,6,5,4,3,2,1")
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert calls == []

    def test_pooled_sweep_matches_sequential(self, capsys, monkeypatch):
        argv = ("positivity", "--max-weight", "6", "--format", "json")
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        code, seq, _ = run(capsys, *argv)
        assert code == EXIT_OK
        monkeypatch.setenv("QMONO_THREADS", "2")
        code, par, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert json.loads(seq)["results"] == json.loads(par)["results"]

    def test_ok_is_the_four_fact_verdict_of_criterion_9(self, capsys, monkeypatch):
        # Break only the auxiliary identity of (2,1): P(q), the subset
        # product with no part sum used, is read by that identity alone, so
        # the other three facts still hold.
        real = positivity._subset_product
        counts_21 = subset_sum_counts(Partition((2, 1)))

        def broken(counts, used):
            P = real(counts, used)
            return P + 1 if counts == counts_21 and not used else P

        monkeypatch.setattr(positivity, "_subset_product", broken)
        monkeypatch.delenv("QMONO_THREADS", raising=False)
        code, out, _ = run(capsys, "positivity", "--mu", "2,1", "--format", "json")
        assert code == EXIT_VERIFY_FAILED
        (res,) = json.loads(out)["results"]
        assert res["Hbar"] is not None
        assert res["all_coefficients_nonnegative_integers"] is True
        assert res["identity_holds"] is True
        assert res["ok"] is False
        result = acceptance.criterion_9_positivity()
        assert result.instances == 247
        assert result.failures == ["auxiliary identity mu=(2,1)"]

    def test_omitted_max_weight_means_eight(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_positivity_instance", lambda task: {"mu": list(task), "ok": True})
        code, out, _ = run(capsys, "positivity", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["instances_checked"] == 66


class TestEigencheckCommand:
    def test_small_instance(self, capsys):
        code, out, _ = run(capsys, "eigencheck", "--n", "1", "--N", "2")
        assert code == EXIT_OK
        assert "ok" in out

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "eigencheck", "--n", "1", "--N", "5")
        assert code == EXIT_RESOURCE
        assert "cap" in err

    def test_degree_over_cap_is_refused_before_any_work(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(macdonald, "row_polynomial", lambda *a: calls.append(a))
        t0 = time.perf_counter()
        code, out, err = run(capsys, "eigencheck", "--n", "9", "--N", "3")
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "cap" in err
        assert calls == []


class TestSelftestCommand:
    def test_a_failed_criterion_exits_1_and_names_it(self, capsys, monkeypatch):
        # Break the closed form of (1,1,1) alone: criterion 4 reads it at
        # k = 3 for each N from 3 to 6.
        real = acceptance.monomial_spec

        def broken(mu, form="theorem1"):
            result = real(mu, form)
            if mu != Partition((1, 1, 1)):
                return result
            return dataclasses.replace(result, value=result.value * 2)

        monkeypatch.setattr(acceptance, "monomial_spec", broken)
        monkeypatch.setattr(acceptance, "ALL_CRITERIA", (acceptance.criterion_4_gauss_polynomials,))
        labels = [f"criterion 4: k=3 N={N}" for N in range(3, 7)]
        code, out, _ = run(capsys, "selftest", "--format", "json")
        assert code == EXIT_VERIFY_FAILED
        doc = json.loads(out)
        assert doc["instances_checked"] == 21
        assert [f["instance"] for f in doc["failures"]] == labels
        (criterion,) = doc["criteria"]
        assert criterion["passed"] is False
        assert criterion["failures"] == [label.split(": ", 1)[1] for label in labels]
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_VERIFY_FAILED
        line, total = out.splitlines()
        assert re.fullmatch(
            r"\[FAIL\] criterion 4: Gauss polynomial specialization "
            r"\(21 instances, 4 failures, \d+\.\ds\)",
            line,
        )
        assert re.fullmatch(r"selftest FAIL: 21 instances, 4 failures, \d+\.\ds", total)


    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest"],
            ["selftest", "--format", "json"],
            ["verify", "--identity", "prop5", "--max-weight", "3"],
            ["verify", "--identity", "prop5", "--max-weight", "3", "--format", "json"],
        ],
    )
    def test_a_comparator_that_accepts_every_pair_fails_the_run(self, capsys, monkeypatch, argv):
        # Every instance passes under an eq that is always true; the control
        # runs first, so the run fails and prints no PASS or ok line.
        monkeypatch.setattr(FactoredFraction, "eq", lambda self, other: True)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        assert out == ""
        assert err == (
            "comparator control failed: "
            "frac_eq accepts (y1 - x1)/(1 - x1) against twice itself\n"
        )


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        # Two lines, written at the final flush; about 14 kB, written mid-run.
        [["specialize", "--mu", "2,1"], ["positivity", "--max-weight", "6"]],
        ids=["final-flush", "mid-run"],
    )
    def test_closed_stdout_exits_141_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qmono.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""


class TestArgparseBehavior:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        # No flag lifts a cap: --max-n and --max-N are unknown too.
        for argv in (
            ["expand", "--n", "2", "--basis", "power", "--frob"],
            ["verify", "--identity", "thm6", "--n", "2", "--max-n", "2"],
            ["eigencheck", "--n", "0", "--N", "4", "--max-N", "4"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_every_flag_in_the_readme_exists(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        mentioned = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme))
        subparsers = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        known = {
            option
            for command in subparsers.choices.values()
            for option in command._option_string_actions
        }
        assert mentioned, "README.md mentions no flag"
        assert sorted(mentioned - known) == []


def _run_in_sequence(capsys, sequence, fresh):
    """(exit code, stdout, stderr) of each argv, run one after another in
    this process; ``fresh`` builds a new parser for every run, otherwise one
    parser serves them all.  Elapsed seconds are masked."""
    cli.build_parser.cache_clear()
    runs = []
    for argv in sequence:
        if fresh:
            cli.build_parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        out = capsys.readouterr()
        runs.append((code, re.sub(r"\d+\.\ds\b", "<t>s", out.out), out.err))
    return runs


class TestParserReuse:
    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize(
        "sequence, codes",
        [
            (
                [["specialize", "--mu", "2,1", "--subst", "a=1,b=q"], ["specialize", "--mu", "2,1"]],
                [EXIT_OK, EXIT_OK],
            ),
            ([["positivity", "--mu", "2,1"], ["positivity", "--max-weight", "2"]], [EXIT_OK, EXIT_OK]),
            (
                [["specialize", "--mu", "2,1", "--frob"], ["specialize", "--mu", "2,1"]],
                [EXIT_USAGE, EXIT_OK],
            ),
        ],
        ids=["subst-then-none", "mu-then-sweep", "error-then-valid"],
    )
    def test_a_reused_parser_runs_like_a_fresh_one(self, capsys, sequence, codes):
        # No option value or default of one run leaks into the next.
        reused = _run_in_sequence(capsys, sequence, fresh=False)
        assert reused == _run_in_sequence(capsys, sequence, fresh=True)
        assert [code for code, _, _ in reused] == codes
        assert reused[0] != reused[1]
