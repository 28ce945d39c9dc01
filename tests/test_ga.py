"""Genetic algorithm: budget, selection, population, operators, NS, engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GAConfig, NeighborhoodConfig
from repro.core import ArtifactStore, SynthesisSession
from repro.dsl import Interpreter, Program, REGISTRY, has_dead_code, make_io_set
from repro.dsl.functions import FunctionRegistry
from repro.fitness import EditDistanceFitness, OracleFitness
from repro.ga import (
    BudgetExhausted,
    GeneOperators,
    GeneticAlgorithm,
    NeighborhoodSearch,
    Population,
    SearchBudget,
    roulette_wheel_indices,
    roulette_wheel_probabilities,
)
from repro.ga.selection import probability_cdf, roulette_wheel_cdf


class TestSearchBudget:
    def test_charging_and_exhaustion(self):
        budget = SearchBudget(limit=5)
        assert budget.charge(3) == 3
        assert budget.remaining == 2
        assert not budget.exhausted
        assert budget.charge(10) == 2  # clipped
        assert budget.exhausted
        assert budget.fraction_used == 1.0

    def test_strict_mode_raises(self):
        budget = SearchBudget(limit=2)
        with pytest.raises(BudgetExhausted):
            budget.charge(3, strict=True)
        assert budget.used == 0  # nothing charged on failure

    def test_reset_and_copy(self):
        budget = SearchBudget(limit=4, used=2)
        clone = budget.copy()
        budget.reset()
        assert budget.used == 0 and clone.used == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(limit=0)
        with pytest.raises(ValueError):
            SearchBudget(limit=5, used=-1)
        with pytest.raises(ValueError):
            SearchBudget(limit=5).charge(-1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=1000), st.lists(st.integers(min_value=0, max_value=50), max_size=20))
    def test_used_never_exceeds_limit(self, limit, charges):
        budget = SearchBudget(limit=limit)
        for count in charges:
            budget.charge(count)
        assert 0 <= budget.used <= budget.limit
        assert budget.remaining == budget.limit - budget.used


class TestRouletteWheel:
    def test_probabilities_are_normalized_and_monotone(self):
        scores = np.array([0.0, 1.0, 3.0])
        probabilities = roulette_wheel_probabilities(scores)
        assert np.isclose(probabilities.sum(), 1.0)
        assert probabilities[2] > probabilities[1] > probabilities[0] > 0

    def test_equal_scores_are_uniform(self):
        probabilities = roulette_wheel_probabilities(np.array([2.0, 2.0, 2.0]))
        assert np.allclose(probabilities, 1 / 3)

    def test_negative_scores_supported(self):
        probabilities = roulette_wheel_probabilities(np.array([-5.0, -1.0]))
        assert probabilities[1] > probabilities[0]

    def test_selection_bias_towards_fit_genes(self, rng):
        scores = np.array([0.1, 0.1, 10.0])
        picks = roulette_wheel_indices(scores, 2000, rng)
        assert np.bincount(picks, minlength=3)[2] > 1200

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            roulette_wheel_probabilities(np.array([]))
        with pytest.raises(ValueError):
            roulette_wheel_probabilities(np.array([1.0]), temperature=0)
        with pytest.raises(ValueError):
            roulette_wheel_indices(np.array([1.0]), -1, rng)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20))
    def test_probabilities_always_valid(self, scores):
        probabilities = roulette_wheel_probabilities(np.array(scores))
        assert np.isclose(probabilities.sum(), 1.0)
        assert np.all(probabilities > 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40),
        st.one_of(st.sampled_from([1, 2]), st.integers(min_value=0, max_value=300)),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cdf_draws_equal_choice_draws(self, scores, count, seed):
        scores = np.array(scores)
        probabilities = roulette_wheel_probabilities(scores)
        expected_rng = np.random.default_rng(seed)
        expected = expected_rng.choice(len(scores), size=count, p=probabilities)
        expected_next = expected_rng.random()
        cdf = roulette_wheel_cdf(scores)
        for prebuilt in (cdf, None):
            rng = np.random.default_rng(seed)
            drawn = roulette_wheel_indices(scores, count, rng, cdf=prebuilt)
            np.testing.assert_array_equal(drawn, expected)
            # the same RNG values were consumed: the streams stay aligned
            assert rng.random() == expected_next

    def test_nan_scores_raise(self, rng):
        scores = np.array([1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            roulette_wheel_cdf(scores)
        with pytest.raises(ValueError):
            roulette_wheel_indices(scores, 2, rng)

    def test_probability_cdf_makes_choices_checks(self):
        with pytest.raises(ValueError):
            probability_cdf(np.array([0.5, np.nan]))
        with pytest.raises(ValueError):
            probability_cdf(np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            probability_cdf(np.array([0.5, 0.6]))
        np.testing.assert_array_equal(probability_cdf(np.array([0.25, 0.0, 0.75])), [0.25, 0.25, 1.0])


class TestPopulation:
    def _population(self):
        members = [Program.from_names(["SORT"]), Program.from_names(["REVERSE"]), Program.from_names(["SUM"])]
        return Population(members, scores=np.array([1.0, 3.0, 2.0]))

    def test_best_and_top(self):
        population = self._population()
        assert population.best().names == ["REVERSE"]
        assert [p.names[0] for p in population.top(2)] == ["REVERSE", "SUM"]
        assert population.max_score() == 3.0
        assert np.isclose(population.mean_score(), 2.0)

    def test_unscored_population_raises(self):
        population = Population([Program.from_names(["SORT"])])
        assert not population.is_scored
        with pytest.raises(RuntimeError):
            population.best()

    def test_set_scores_validates_length(self):
        population = Population([Program.from_names(["SORT"])])
        with pytest.raises(ValueError):
            population.set_scores([1.0, 2.0])

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            Population([])

    def test_unique_fraction(self):
        members = [Program.from_names(["SORT"]), Program.from_names(["SORT"])]
        assert Population(members).unique_fraction() == 0.5


class TestGeneOperators:
    def test_random_genes_have_length_and_no_dead_code(self, rng):
        operators = GeneOperators(program_length=4, rng=rng)
        for gene in operators.random_population(15):
            assert len(gene) == 4
            assert not has_dead_code(gene)

    def test_crossover_preserves_length_and_material(self, rng):
        operators = GeneOperators(program_length=5, rng=rng)
        a, b = operators.random_gene(), operators.random_gene()
        child = operators.crossover(a, b)
        assert len(child) == 5
        parent_ids = set(a.function_ids) | set(b.function_ids)
        assert set(child.function_ids) <= parent_ids

    def test_crossover_requires_equal_lengths(self, rng):
        operators = GeneOperators(program_length=3, rng=rng)
        with pytest.raises(ValueError):
            operators.crossover(Program.from_names(["SORT"]), Program.from_names(["SORT", "REVERSE"]))

    def test_mutation_changes_exactly_one_position(self, rng):
        operators = GeneOperators(program_length=4, rng=rng, forbid_dead_code=False)
        gene = operators.random_gene()
        mutated = operators.mutate(gene)
        differences = sum(x != y for x, y in zip(gene.function_ids, mutated.function_ids))
        assert differences == 1

    def test_mutation_with_probability_map_prefers_likely_functions(self, rng):
        operators = GeneOperators(program_length=3, rng=rng, forbid_dead_code=False)
        gene = Program.from_names(["SORT", "SORT", "SORT"])
        prob_map = np.full(41, 1e-6)
        target_fid = REGISTRY.by_name("REVERSE").fid
        prob_map[target_fid - 1] = 1.0
        replacements = set()
        for _ in range(10):
            mutated = operators.mutate(gene, probability_map=prob_map)
            replacements |= set(mutated.function_ids) - {REGISTRY.by_name("SORT").fid}
        assert replacements == {target_fid}

    def test_mutation_with_position_scores(self, rng):
        operators = GeneOperators(program_length=3, rng=rng, forbid_dead_code=False)
        gene = Program.from_names(["SORT", "REVERSE", "MAP(*2)"])
        position_scores = np.array([0.0, 0.0, 100.0])
        changed_positions = set()
        for _ in range(10):
            mutated = operators.mutate(gene, position_scores=position_scores)
            for index, (x, y) in enumerate(zip(gene.function_ids, mutated.function_ids)):
                if x != y:
                    changed_positions.add(index)
        assert changed_positions == {2}

    def test_mutation_validates_inputs(self, rng):
        operators = GeneOperators(program_length=3, rng=rng)
        gene = operators.random_gene()
        with pytest.raises(ValueError):
            operators.mutate(gene, probability_map=np.ones(5))
        with pytest.raises(ValueError):
            operators.mutate(gene, position_scores=np.ones(5))
        with pytest.raises(ValueError):
            operators.mutate(Program([]))

    @staticmethod
    def _per_call_replacement(rng, ids, current, probability_map):
        """MutationFP's replacement draw as one rng.choice(p=...) per call."""
        weights = np.clip(np.asarray(probability_map, dtype=np.float64), 0.0, None) + 1e-6
        weights[list(ids).index(current)] = 0.0
        return int(ids[int(rng.choice(len(ids), p=weights / weights.sum()))])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=-0.5, max_value=5.0, allow_nan=False), min_size=41, max_size=41),
        st.lists(st.sampled_from(REGISTRY.ids[:6]), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_cached_replacement_draws_equal_per_call_draws(self, probability_map, currents, seed):
        probability_map = np.array(probability_map)
        operators = GeneOperators(program_length=3, rng=np.random.default_rng(seed))
        reference = np.random.default_rng(seed)
        # repeated currents are answered from the cached CDF
        for current in currents:
            expected = self._per_call_replacement(reference, REGISTRY.ids, current, probability_map)
            assert operators._choose_replacement(current, probability_map) == expected
        assert operators.rng.random() == reference.random()

    @pytest.mark.parametrize("fids", [(35, 36, 37, 38), (2, 3, 4, 5)])
    def test_probability_map_on_subset_registry(self, fids):
        registry = FunctionRegistry([REGISTRY.by_id(fid) for fid in fids])
        operators = GeneOperators(
            program_length=2, registry=registry, rng=np.random.default_rng(3),
            forbid_dead_code=False,
        )
        # the map is indexed by position in registry.ids; the current
        # function holds nearly all the mass, so it must be the one excluded
        prob_map = np.array([1.0, 1e-3, 1e-3, 1e-3])
        current = fids[0]
        gene = Program([current, current], registry)
        for _ in range(20):
            mutated = operators.mutate(gene, probability_map=prob_map)
            assert sum(fid != current for fid in mutated.function_ids) == 1
        reference = np.random.default_rng(11)
        operators.rng = np.random.default_rng(11)
        for _ in range(10):
            expected = self._per_call_replacement(reference, fids, current, prob_map)
            assert operators._choose_replacement(current, prob_map) == expected

    def test_nan_probability_map_raises(self, rng):
        operators = GeneOperators(program_length=3, rng=rng)
        prob_map = np.full(41, 0.5)
        prob_map[[7, 30]] = np.nan  # one survives excluding the current function
        with pytest.raises(ValueError):
            operators.mutate(operators.random_gene(), probability_map=prob_map)

    def test_invalid_length(self, rng):
        with pytest.raises(ValueError):
            GeneOperators(program_length=0, rng=rng)
        with pytest.raises(ValueError):
            GeneOperators(program_length=3, rng=rng).random_population(0)


class TestNeighborhoodSearch:
    def _setup(self, strategy="bfs"):
        interpreter = Interpreter()
        target = Program.from_names(["FILTER(>0)", "MAP(*2)", "SORT"])
        io_set = make_io_set(target, [[[1, -2, 3]], [[4, -5, 6]], [[7, 8, -9]]], interpreter)
        fitness = OracleFitness(target, kind="lcs")
        config = NeighborhoodConfig(strategy=strategy, top_n=2, window=3)
        return target, io_set, NeighborhoodSearch(config=config, fitness=fitness)

    def test_bfs_finds_one_edit_neighbor(self):
        target, io_set, search = self._setup("bfs")
        near_miss = target.with_replacement(1, REGISTRY.by_name("REVERSE").fid)
        budget = SearchBudget(limit=1000)
        found = search.search([near_miss], io_set, budget)
        assert found is not None
        assert found == target or Interpreter().output_of(found, io_set[0].inputs) == io_set[0].output
        assert budget.used == search.stats.candidates_examined
        assert search.stats.successes == 1

    def test_dfs_finds_one_edit_neighbor(self):
        target, io_set, search = self._setup("dfs")
        near_miss = target.with_replacement(0, REGISTRY.by_name("SORT").fid)
        assert search.search([near_miss], io_set, SearchBudget(limit=2000)) is not None

    def test_search_respects_budget(self):
        target, io_set, search = self._setup("bfs")
        far = Program.from_names(["SUM", "TAKE", "DELETE"])
        budget = SearchBudget(limit=10)
        assert search.search([far], io_set, budget) is None
        assert budget.used == 10

    def test_should_trigger_detects_saturation(self):
        _, _, search = self._setup("bfs")
        improving = [1, 2, 3, 4, 5, 6, 7, 8]
        flat = [5, 5, 5, 5, 5, 5, 5, 5]
        assert not search.should_trigger(improving)
        assert search.should_trigger(flat)
        assert not search.should_trigger([1, 2])  # not enough history

    def test_dfs_requires_fitness(self):
        with pytest.raises(ValueError):
            NeighborhoodSearch(config=NeighborhoodConfig(strategy="dfs"), fitness=None)

    def test_neighbors_exclude_current_function(self):
        target, _, search = self._setup("bfs")
        neighbors = search._neighbors_at(target, 0)
        assert len(neighbors) == 40
        assert all(n.function_ids[0] != target.function_ids[0] for n in neighbors)


class TestGeneticAlgorithmEngine:
    def _engine(self, target, fitness=None, neighborhood=True, seed=0, config=None):
        operators = GeneOperators(program_length=len(target), rng=np.random.default_rng(seed))
        fitness = fitness or OracleFitness(target, kind="lcs")
        config = config or GAConfig(population_size=20, elite_count=2, max_generations=100)
        ns = None
        if neighborhood:
            ns = NeighborhoodSearch(
                config=NeighborhoodConfig(top_n=2, window=3, cooldown=2), fitness=fitness
            )
        return GeneticAlgorithm(
            fitness=fitness,
            operators=operators,
            config=config,
            neighborhood=ns,
            rng=np.random.default_rng(seed),
        )

    def _task(self, names=("FILTER(>0)", "MAP(*2)", "SORT")):
        interpreter = Interpreter()
        target = Program.from_names(list(names))
        io_set = make_io_set(target, [[[1, -2, 3]], [[4, -5, 6]], [[-7, 8, 9]]], interpreter)
        return target, io_set

    def test_oracle_guided_search_finds_program(self):
        target, io_set = self._task()
        result = self._engine(target).run(io_set, SearchBudget(limit=5000))
        assert result.found
        assert result.program is not None
        assert result.candidates_used <= 5000
        assert Interpreter().output_of(result.program, io_set[0].inputs) == io_set[0].output

    def test_budget_exhaustion_reported(self):
        target, io_set = self._task()
        # edit fitness with a tiny budget: almost surely not found
        result = self._engine(target, fitness=EditDistanceFitness(), neighborhood=False).run(
            io_set, SearchBudget(limit=30)
        )
        assert result.candidates_used == 30
        if not result.found:
            assert result.program is None
            assert result.found_by == "none"

    def test_histories_recorded(self):
        target, io_set = self._task()
        result = self._engine(target).run(io_set, SearchBudget(limit=3000))
        assert len(result.average_fitness_history) == len(result.best_fitness_history)
        if result.generations > 1 and not result.found_by == "init":
            assert len(result.average_fitness_history) >= 1

    def test_generation_limit_respected(self):
        target, io_set = self._task()
        config = GAConfig(population_size=10, elite_count=1, max_generations=3)
        result = self._engine(target, fitness=EditDistanceFitness(), neighborhood=False, config=config).run(
            io_set, SearchBudget(limit=100000)
        )
        assert result.generations <= 3

    def test_nan_scores_raise(self):
        class NaNFitness(EditDistanceFitness):
            def score(self, programs, io_set):
                return np.full(len(programs), np.nan)

        target, io_set = self._task()
        engine = self._engine(target, fitness=NaNFitness(), neighborhood=False)
        with pytest.raises(ValueError):
            engine.run(io_set, SearchBudget(limit=500))

    def test_deterministic_given_seed(self):
        target, io_set = self._task()
        first = self._engine(target, seed=5).run(io_set, SearchBudget(limit=2000))
        second = self._engine(target, seed=5).run(io_set, SearchBudget(limit=2000))
        assert first.found == second.found
        assert first.candidates_used == second.candidates_used
        assert first.generations == second.generations


class TestSeededGAGolden:
    """Pinned results of two seeded session jobs.

    Recorded before the selection and FP-guided mutation draws moved to
    prebuilt CDFs.  Any change to the sampling (a different index, an
    extra RNG draw) shifts the whole run, so every value must stay as
    recorded: exactly, or to 1e-9 for the NN-scored fitness histories.
    """

    FP_AVG = [
        1.4283333783230376, 1.4935434951479394, 1.5116505099687376, 1.4556577755553688,
        1.5401069009991886, 1.6197646866449968, 1.6467858617863498, 1.6288214600639477,
        1.6513549535646619, 1.6646574923867046, 1.6707027704179231, 1.6642325635658668,
        1.671651987826549, 1.6411634119252807, 1.573295875084303, 1.6468339158643108,
        1.6291196502423761, 1.6927940464766713, 1.7017933394779594, 1.6680765182127228,
        1.6416887052667537, 1.701164163344881, 1.68892755963188, 1.6953228428790381,
        1.7036553211076164, 1.6885607761989843, 1.7039617706835017, 1.6964385017561827,
        1.7022316627990606, 1.700930448550952, 1.6767014274413268, 1.6470131586151044,
        1.691821028091346, 1.6545394653900765, 1.6652937410745818, 1.6748515541560949,
        1.695595898744798, 1.7090550704961138, 1.7398801209226165, 1.7041080733480456,
        1.7385822247518377, 1.7375527539446338,
    ]
    # (value, generations it held for) runs of the best-fitness history
    FP_BEST_RUNS = [
        (1.7118643456555955, 8), (1.7291581947178245, 1), (1.737644954655504, 7),
        (1.7433349133898397, 1), (1.7630332408858194, 13), (1.7677081869787927, 6),
        (1.7913606951924188, 6),
    ]
    EDIT_AVG = [
        0.7816666666666665, 1.175, 1.3958333333333333, 1.4, 1.3958333333333333, 1.4625,
        1.4, 1.425, 1.5, 1.45, 1.4, 1.425, 1.375, 1.425, 1.35, 1.2974999999999999, 1.325,
        1.425, 1.3933333333333333, 1.3958333333333333, 1.425, 1.4125, 1.425, 1.4, 1.45,
        1.425, 1.4, 1.4, 1.475, 1.45, 1.45, 1.35, 1.4, 1.425,
    ]

    @staticmethod
    def _solve(config, store, method, task, seed):
        session = SynthesisSession(config, store, methods=(method,))
        job = session.submit(task, budget=1500, seed=seed)
        session.run()
        return job.result

    @staticmethod
    def _expand(runs):
        return [value for value, count in runs for _ in range(count)]

    def test_netsyn_fp_job(self, tiny_netsyn_config, tiny_fp_artifacts, tiny_suite):
        config = tiny_netsyn_config.replace(fitness_kind="fp")
        assert config.fp_guided_mutation
        result = self._solve(
            config, ArtifactStore(fp=tiny_fp_artifacts), "netsyn_fp", tiny_suite[0], seed=4
        )
        assert (result.found, result.generations, result.candidates_used) == (True, 42, 552)
        assert result.program.names == ["DELETE", "REVERSE", "COUNT(<0)"]
        # NN-scored: tolerate last-bit differences between BLAS builds
        assert result.average_fitness_history == pytest.approx(self.FP_AVG, rel=1e-9)
        assert result.best_fitness_history == pytest.approx(
            self._expand(self.FP_BEST_RUNS), rel=1e-9
        )

    def test_edit_job(self, tiny_netsyn_config, tiny_suite):
        config = tiny_netsyn_config.replace(fitness_kind="edit", fp_guided_mutation=False)
        result = self._solve(config, ArtifactStore(), "edit", tiny_suite[0], seed=2)
        assert (result.found, result.generations, result.candidates_used) == (True, 34, 676)
        assert result.program.names == ["SCANL1(max)", "MAP(/3)", "COUNT(even)"]
        assert result.average_fitness_history == self.EDIT_AVG
        assert result.best_fitness_history == [1.5] * 34
