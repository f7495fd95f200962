"""Positive and negative coverage for every lint rule."""

import textwrap

from repro.lint import lint_source


def rule_ids(source, path="pkg/repro/module.py"):
    return [f.rule_id for f in lint_source(textwrap.dedent(source), path=path)]


class TestDET001:
    def test_plain_import_flagged(self):
        assert "DET001" in rule_ids("import random\n")

    def test_aliased_and_from_imports_flagged(self):
        assert "DET001" in rule_ids("import random as rnd\n")
        assert "DET001" in rule_ids("from random import Random\n")

    def test_function_level_import_flagged(self):
        src = """
        def f(seed):
            import random as _random
            return _random.Random(seed)
        """
        assert "DET001" in rule_ids(src)

    def test_rng_module_exempt(self):
        assert rule_ids("import random\n", path="src/repro/sim/rng.py") == []

    def test_seeded_rng_usage_clean(self):
        src = """
        from repro.sim.rng import seeded_rng

        def f(seed):
            return seeded_rng(seed, "demo.f").random()
        """
        assert rule_ids(src) == []


class TestDET002:
    def test_wall_clock_call_in_sim_package(self):
        src = """
        import time

        def f():
            return time.time()
        """
        assert rule_ids(src, path="repro/sim/engine.py") == ["DET002"]

    def test_datetime_now_in_chain_package(self):
        src = """
        from datetime import datetime

        def f():
            return datetime.now()
        """
        assert rule_ids(src, path="repro/chain/mempool.py") == ["DET002"]

    def test_from_time_import_flagged(self):
        src = "from time import monotonic\n"
        assert rule_ids(src, path="repro/net/transport.py") == ["DET002"]

    def test_wall_clock_allowed_outside_simulated_packages(self):
        src = """
        import time

        def f():
            return time.perf_counter()
        """
        assert rule_ids(src, path="repro/analysis/runner.py") == []

    def test_simulated_time_attribute_clean(self):
        src = """
        def f(sim):
            return sim.now
        """
        assert rule_ids(src, path="repro/sim/engine.py") == []


class TestDET003:
    def test_np_random_call_flagged(self):
        src = """
        import numpy as np

        def f(n):
            return np.random.rand(n)
        """
        assert "DET003" in rule_ids(src)

    def test_numpy_random_seed_flagged(self):
        src = """
        import numpy

        def f():
            numpy.random.seed(0)
        """
        assert "DET003" in rule_ids(src)

    def test_from_numpy_random_import_flagged(self):
        assert "DET003" in rule_ids("from numpy.random import rand\n")

    def test_default_rng_not_global_state(self):
        # default_rng is explicitly seeded, so DET003 stays quiet; the
        # construction site itself is DET004's business.
        src = """
        import numpy as np

        def f(seed):
            return np.random.default_rng(seed).random()
        """
        assert "DET003" not in rule_ids(src)

    def test_no_numpy_no_findings(self):
        assert rule_ids("import math\n") == []


class TestDET004:
    def test_default_rng_attribute_chain_flagged(self):
        src = """
        import numpy as np

        def f(seed):
            return np.random.default_rng(seed)
        """
        assert rule_ids(src) == ["DET004"]

    def test_generator_via_random_alias_flagged(self):
        src = """
        import numpy.random as npr

        def f(seed):
            return npr.Generator(npr.PCG64(seed))
        """
        assert rule_ids(src) == ["DET004", "DET004"]

    def test_direct_ctor_import_call_flagged(self):
        src = """
        from numpy.random import default_rng

        def f(seed):
            return default_rng(seed)
        """
        assert rule_ids(src) == ["DET004"]

    def test_rng_module_exempt(self):
        src = """
        import numpy

        def seeded_generator(root_seed, name):
            return numpy.random.Generator(numpy.random.PCG64(root_seed))
        """
        assert rule_ids(src, path="src/repro/sim/rng.py") == []

    def test_seeded_generator_usage_clean(self):
        src = """
        from repro.sim.rng import seeded_generator

        def f(seed):
            return seeded_generator(seed, "demo.f").random(10)
        """
        assert rule_ids(src) == []

    def test_unrelated_default_rng_name_clean(self):
        # A local function that merely shares a ctor name is not numpy's.
        src = """
        def default_rng(seed):
            return seed

        def f(seed):
            return default_rng(seed)
        """
        assert rule_ids(src) == []


class TestPAR001:
    def test_lambda_to_runner_run(self):
        src = """
        def f(runner, configs):
            return runner.run("exp", lambda seed: seed, configs)
        """
        assert rule_ids(src) == ["PAR001"]

    def test_nested_function_to_submit(self):
        src = """
        def f(executor):
            def point(seed):
                return seed
            return executor.submit(point, 1)
        """
        assert rule_ids(src) == ["PAR001"]

    def test_lambda_valued_name_to_map(self):
        src = """
        transform = lambda x: x + 1

        def f(pool, items):
            return pool.map(transform, items)
        """
        assert rule_ids(src) == ["PAR001"]

    def test_top_level_function_clean(self):
        src = """
        def point(seed):
            return seed

        def f(runner, configs):
            return runner.run("exp", point, configs)
        """
        assert rule_ids(src) == []

    def test_sorted_key_lambda_not_flagged(self):
        src = """
        def f(items):
            return sorted(items, key=lambda x: x.name)
        """
        assert rule_ids(src) == []


class TestERR001:
    def test_swallowed_broad_except(self):
        src = """
        def f(fn):
            try:
                return fn()
            except Exception:
                return None
        """
        assert rule_ids(src) == ["ERR001"]

    def test_bare_except_flagged(self):
        src = """
        def f(fn):
            try:
                return fn()
            except:
                return None
        """
        assert rule_ids(src) == ["ERR001"]

    def test_reraise_allowed(self):
        src = """
        def f(fn):
            try:
                return fn()
            except Exception as exc:
                raise RuntimeError("wrapped") from exc
        """
        assert rule_ids(src) == []

    def test_narrow_handler_allowed(self):
        src = """
        def f(fn):
            try:
                return fn()
            except (ValueError, KeyError):
                return None
        """
        assert rule_ids(src) == []


class TestAPI001:
    def test_phantom_export_flagged(self):
        src = """
        __all__ = ["missing"]
        """
        assert rule_ids(src) == ["API001"]

    def test_unexported_public_def_flagged(self):
        src = """
        __all__ = ["f"]

        def f():
            return 1

        def g():
            return 2
        """
        assert rule_ids(src) == ["API001"]

    def test_private_defs_need_no_export(self):
        src = """
        __all__ = ["f"]

        def f():
            return 1

        def _helper():
            return 2
        """
        assert rule_ids(src) == []

    def test_module_without_all_exempt(self):
        src = """
        def anything():
            return 1
        """
        assert rule_ids(src) == []

    def test_conditional_definition_counts(self):
        src = """
        __all__ = ["f"]

        try:
            from fastlib import f
        except ImportError:
            def f():
                return 1
        """
        assert rule_ids(src) == []


class TestFLT001:
    def test_partition_assignment_flagged(self):
        src = """
        def sabotage(network):
            network._partition = {"a": 0, "b": 1}
        """
        assert rule_ids(src) == ["FLT001"]

    def test_loss_rate_mutation_flagged(self):
        src = """
        def degrade(network):
            network.loss_rate = 0.5
        """
        assert rule_ids(src) == ["FLT001"]

    def test_aug_and_annotated_assignments_flagged(self):
        assert "FLT001" in rule_ids("def f(n):\n    n.drop_prob += 0.1\n")
        assert "FLT001" in rule_ids(
            "def f(n):\n    n.loss_rate: float = 0.2\n"
        )

    def test_set_fault_surface_call_flagged(self):
        src = """
        def install(network, surface):
            network._set_fault_surface(surface)
        """
        assert rule_ids(src) == ["FLT001"]

    def test_faults_package_exempt(self):
        src = """
        def install(network, surface):
            network._set_fault_surface(surface)
        """
        assert rule_ids(src, path="src/repro/faults/injector.py") == []

    def test_transport_module_exempt(self):
        src = """
        class Network:
            def __init__(self):
                self._partition = None
                self.loss_rate = 0.0
        """
        assert rule_ids(src, path="src/repro/net/transport.py") == []

    def test_public_partition_api_clean(self):
        src = """
        def split(network):
            network.partition([["a"], ["b"]])
            network.heal()
        """
        assert rule_ids(src) == []

    def test_constructor_kwarg_clean(self):
        src = """
        def build(sim, streams, Network):
            return Network(sim, streams, loss_rate=0.02)
        """
        assert rule_ids(src) == []

    def test_censor_assignment_flagged(self):
        src = """
        def censor_by_hand(network, surface):
            network._censor = surface
        """
        assert rule_ids(src) == ["FLT001"]

    def test_set_censor_surface_call_flagged(self):
        src = """
        def install(network, surface):
            network._set_censor_surface(surface)
        """
        assert rule_ids(src) == ["FLT001"]

    def test_blocklist_in_place_mutation_flagged(self):
        for mutation in ("surface.blocklist.add('relay0')",
                         "surface.blocklist.discard('svc0')",
                         "surface.blocklist.update(ids)",
                         "surface.blocklist.clear()"):
            src = f"def poke(surface, ids):\n    {mutation}\n"
            assert rule_ids(src) == ["FLT001"], mutation

    def test_blocklist_reassignment_flagged(self):
        assert rule_ids(
            "def poke(surface):\n    surface.blocklist = set()\n"
        ) == ["FLT001"]

    def test_censor_mutation_exempt_inside_faults(self):
        src = """
        def reblock(surface, relay):
            surface.blocklist.add(relay)
        """
        assert rule_ids(src, path="src/repro/faults/injector.py") == []

    def test_unrelated_set_mutation_clean(self):
        src = """
        def track(state, relay):
            state.seen.add(relay)
            blocklist = set()
            blocklist.add(relay)
        """
        assert rule_ids(src) == []
