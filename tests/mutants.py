"""The mutant catalogue: hand-made faults the tests are known to catch.

Each entry is plain data: the source file (relative to the repository), the
exact text to replace, which must occur in it exactly once, the replacement,
the test ids expected to fail on the mutant, and ``origin``, the change (as
ROADMAP's Recent list titles it) whose tests were first shown to kill it.
`test_tooling.py` checks that every entry still applies;
``scripts/run_mutants.py`` applies them one at a time to a copy of ``src/``
and runs the named tests.  A refactor that moves a mutated line updates its
entry here.
"""

GOLDEN = "tests/test_golden.py::test_stdout_matches_golden"
REASONS = "tests/test_classify.py::test_reasons_render_like_the_branch_per_kind_references"
ACTIONS = "tests/test_actions.py::"

MUTANTS = (
    # -- the reports' reasons and labels --------------------------------------
    {
        "name": "simple_reason_drops_note",
        "file": "src/graphck/classify.py",
        "old": '"note": self.note}',
        "new": '"note": None}',
        "tests": (REASONS, f"{GOLDEN}[analyze-e2-json]"),
        "origin": "One source per printed fact",
    },
    {
        "name": "pi_reason_puts_vertex_first",
        "file": "src/graphck/classify.py",
        "old": 'reason: dict = {"kind": self.reason_kind}',
        "new": 'reason: dict = {"kind": self.reason_kind, "vertex": self.vertex}',
        "tests": (f"{GOLDEN}[analyze-omega-gap-json]",),
        "origin": "One source per printed fact",
    },
    {
        "name": "text_reason_names_the_wrong_condition",
        "file": "src/graphck/classify.py",
        "old": '"Condition (K) fails at %(vertex)s"',
        "new": '"Condition (L) fails at %(vertex)s"',
        "tests": (REASONS,),
        "origin": "One source per printed fact",
    },
    {
        "name": "text_reason_spaces_its_lists",
        "file": "src/graphck/classify.py",
        "old": '{k: ",".join(v) if type(v) is list',
        "new": '{k: ", ".join(v) if type(v) is list',
        "tests": (REASONS, f"{GOLDEN}[analyze-e4-text]"),
        "origin": "One source per printed fact",
    },
    {
        "name": "pair_label_reverses_B",
        "file": "src/graphck/ideals.py",
        "old": '"};B={" + ",".join(B)',
        "new": '"};B={" + ",".join(reversed(B))',
        "tests": (f"{GOLDEN}[lattice-omega-fan-4-json]",),
        "origin": "One source per printed fact",
    },
    {
        "name": "lattice_json_label_not_the_pair_label",
        "file": "src/graphck/ideals.py",
        "old": "(_QUOTE(p.label) for p in lat.pairs)",
        "new": '(_QUOTE(p.label.replace(";", ",")) for p in lat.pairs)',
        "tests": (
            "tests/test_ideals.py::test_json_writer_matches_the_encoder",
            f"{GOLDEN}[lattice-e1-json]",
        ),
        "origin": "One source per printed fact",
    },
    # -- the graph layer's trusted builds -------------------------------------
    {
        "name": "gap_name_steps_once",
        "file": "src/graphck/ideals.py",
        "old": "            while name in taken:\n",
        "new": "            if name in taken:\n",
        "tests": ("tests/test_ideals.py::test_quotients_equal_their_validated_copies",),
        "origin": "Validate once in the graph layer",
    },
    {
        "name": "mask_pair_range_over_the_empty_set",
        "file": "src/graphck/ideals.py",
        "old": "gaps = g._breaking(h) & ~p._b",
        "new": "gaps = g._breaking(0) & ~p._b",
        "tests": ("tests/test_ideals.py::test_quotient_e4_empty_B_keeps_gap",),
        "origin": "Validate once in the graph layer",
    },
    {
        "name": "pairwise_subset_test_reversed",
        "file": "src/graphck/poset.py",
        "old": "if not r & ~s]",
        "new": "if not s & ~r]",
        "tests": ("tests/test_poset.py::test_subset_order_matches_a_brute_inclusion_test",),
        "origin": "Validate once in the graph layer",
    },
    {
        "name": "tails_sorted_smallest_first",
        "file": "src/graphck/graphs.py",
        "old": "tails.sort(key=int.bit_count, reverse=True)",
        "new": "tails.sort(key=int.bit_count)",
        "tests": ("tests/test_prime_kernel.py::test_tails_and_breaking_vertices_match_definitions",),
        "origin": "Validate once in the graph layer",
    },
    {
        "name": "parallel_records_not_repeated",
        "file": "src/graphck/graphs.py",
        "old": "if m != 1 or src[r] & bit:",
        "new": "if m != 1:",
        "tests": (
            "tests/test_prime_kernel.py::test_the_constructor_builds_the_edge_tables_and_nothing_lazy",
            "tests/test_prime_kernel.py::test_one_return_marks_the_vertices_with_one_first_return_path",
        ),
        "origin": "Validate once in the graph layer",
    },
    # -- each order fact read once -------------------------------------------
    {
        "name": "breaking_pair_keeps_its_vertex",
        "file": "src/graphck/graphs.py",
        "old": "self._breaking(h) & ~(1 << i)",
        "new": "self._breaking(h)",
        "tests": (
            "tests/test_spectrum.py::test_prime_rows_are_distinct_on_graphs_and_their_quotients",
        ),
        "origin": "Read each order fact once",
    },
    {
        "name": "t0_names_the_last_twin_class",
        "file": "src/graphck/actions.py",
        "old": "i, j = min(twins)",
        "new": "i, j = max(twins)",
        "tests": (f"{ACTIONS}test_t0_check_matches_the_related_pair_walk",),
        "origin": "Read each order fact once",
    },
    {
        "name": "tail_printed_from_h",
        "file": "src/graphck/spectrum.py",
        "old": '",".join(g.names(g._full & ~self.pair._h))',
        "new": '",".join(g.names(self.pair._h))',
        "tests": (f"{GOLDEN}[spectrum-e4-text]",),
        "origin": "Read each order fact once",
    },
    {
        "name": "L_read_off_the_simple_verdict_alone",
        "file": "src/graphck/classify.py",
        "old": (
            'entranceless_cycle_at(g) if simple.reason_kind == "nontrivial_lattice" '
            "else simple.cycle_at"
        ),
        "new": "simple.cycle_at",
        "tests": (
            "tests/test_classify.py::test_classify_fields_match_direct_conditions",
            f"{GOLDEN}[analyze-e6-text]",
        ),
        "origin": "Read each order fact once",
    },
    # -- one copy of each routine --------------------------------------------
    {
        "name": "kernel_reader_reads_one_table",
        "file": "src/graphck/graphs.py",
        "old": "return obj._kernel()[self.name]",
        "new": 'return obj._kernel()["_reach"]',
        "tests": (
            "tests/test_prime_kernel.py::test_one_return_marks_the_vertices_with_one_first_return_path",
        ),
        "origin": "One copy of each routine",
    },
    {
        "name": "orbit_pair_joined_one_way",
        "file": "src/graphck/actions.py",
        "old": "                    succ[j] |= 1 << i\n",
        "new": "",
        "tests": (f"{ACTIONS}test_orbits_match_the_step_closure",),
        "origin": "One copy of each routine",
    },
    {
        "name": "breaking_range_read_off_B",
        "file": "src/graphck/ideals.py",
        "old": "AdmissiblePair(g, H, ())._h",
        "new": "AdmissiblePair(g, H, ())._b",
        "tests": (
            "tests/test_ideals.py::test_breaking_candidates_examples",
            "tests/test_ideals.py::test_breaking_vertices_against_brute_force",
        ),
        "origin": "One copy of each routine",
    },
    # -- recorded before the catalogue, re-expressed against today's code ------
    {
        "name": "tail_rule_drops_omega_in_edges",
        "file": "src/graphck/graphs.py",
        "old": "elif not src[i] or omega[i]:",
        "new": "elif not src[i]:",
        "tests": ("tests/test_prime_kernel.py::test_tails_and_breaking_vertices_match_definitions",),
        "origin": "Saturation read off the prime points",
    },
    {
        "name": "tail_rule_drops_sourceless_vertices",
        "file": "src/graphck/graphs.py",
        "old": "elif not src[i] or omega[i]:",
        "new": "elif omega[i]:",
        "tests": ("tests/test_prime_kernel.py::test_tails_and_breaking_vertices_match_definitions",),
        "origin": "Classify each graph in one kernel pass",
    },
    {
        "name": "cyclic_misses_self_loops",
        "file": "src/graphck/graphs.py",
        "old": "if succ[i] & c:  # a successor shares the component",
        "new": "if succ[i] & c & ~(1 << i):",
        "tests": (
            "tests/test_prime_kernel.py::test_reachability_kernel_matches_a_search_over_edge_records",
        ),
        "origin": "Classify each graph in one kernel pass",
    },
    {
        "name": "breakers_skip_the_reach_test",
        "file": "src/graphck/graphs.py",
        "old": "and not o[i] & r and s[i] & r)",
        "new": "and not o[i] & r)",
        "tests": ("tests/test_prime_kernel.py::test_tails_and_breaking_vertices_match_definitions",),
        "origin": "Saturation read off the prime points",
    },
    {
        "name": "upset_exclude_skips_the_down_set",
        "file": "src/graphck/poset.py",
        "old": "decided | down[i], upset, acc)",
        "new": "decided | 1 << i, upset, acc)",
        "tests": ("tests/test_prime_kernel.py::test_upset_meets_lists_every_up_set_once",),
        "origin": "Saturation read off the prime points",
    },
    {
        "name": "K_names_the_last_one_return_vertex",
        "file": "src/graphck/conditions.py",
        "old": "g.vertices[(m & -m).bit_length() - 1]",
        "new": "g.vertices[m.bit_length() - 1]",
        "tests": ("tests/test_conditions.py::test_condition_K_matches_first_return_definition",),
        "origin": "Conditions (L) and (K) read off the SCC condensation",
    },
    {
        "name": "homeo_names_the_lowest_offending_point",
        "file": "src/graphck/actions.py",
        "old": "y = min(bits(bad), key=order.index)",
        "new": "y = min(bits(bad))",
        "tests": (f"{ACTIONS}test_homeo_validation_matches_pairwise_check",),
        "origin": "One point-set representation in the actions layer",
    },
    {
        "name": "word_run_not_squared",
        "file": "src/graphck/actions.py",
        "old": "                if k & 1:\n",
        "new": "                if k:\n",
        "tests": (f"{ACTIONS}test_element_map_runs_match_letter_by_letter_reference",),
        "origin": "Saturation read off the prime points",
    },
    {
        "name": "word_map_drops_undefined_points",
        "file": "src/graphck/actions.py",
        "old": "current = tuple(f[v] if v >= 0 else -1 for v in current)",
        "new": "current = tuple(f[v] for v in current)",
        "tests": (f"{ACTIONS}test_element_map_runs_match_letter_by_letter_reference",),
        "origin": "Actions layer on compiled index maps",
    },
    {
        "name": "runs_never_merge",
        "file": "src/graphck/actions.py",
        "old": "if out and out[-1][0] == name:",
        "new": "if False:",
        "tests": (f"{ACTIONS}test_element_map_runs_match_letter_by_letter_reference",),
        "origin": "Saturation read off the prime points",
    },
    # -- the actions layer ----------------------------------------------------
    {
        "name": "fixed_union_strict_cycle_count",
        "file": "src/graphck/actions.py",
        "old": ") >= m.bit_count()",
        "new": ") > m.bit_count()",
        "tests": (
            f"{ACTIONS}test_fixed_union_matches_brute_force",
            f"{ACTIONS}test_fixed_union_matches_the_state_closure",
            f"{ACTIONS}test_freeness_examples",
            f"{ACTIONS}test_freeness_is_no_fixed_point",
        ),
        "origin": "Freeness from orbit cycles",
    },
    {
        "name": "element_map_inverse_is_forward",
        "file": "src/graphck/actions.py",
        "old": "_inv=tuple(inv),",
        "new": "_inv=fwd,",
        "tests": (f"{ACTIONS}test_element_map_equals_the_validated_constructor",),
        "origin": "Validate once in the actions layer",
    },
    {
        "name": "word_memo_keyed_by_first_token",
        "file": "src/graphck/actions.py",
        "old": "        if word in memo:\n            return memo[word]\n",
        "new": (
            "        key = word.split()[0] if word.split() else word\n"
            "        if key in memo:\n"
            "            return memo[key]\n"
        ),
        "tests": (
            f"{ACTIONS}test_word_maps_are_memoised_per_action_and_faults_repeat",
            f"{ACTIONS}test_element_map_runs_match_letter_by_letter_reference",
        ),
        "origin": "Validate once in the actions layer",
    },
    {
        "name": "witness_names_the_first_unknown_point_met",
        "file": "src/graphck/actions.py",
        "old": (
            "    except KeyError:  # name the least unknown point, whatever the hash seed\n"
            '        _check_known(index, "decomposition names unknown point", d.v, '
            "*(p for p, _ in d.parts))\n"
        ),
        "new": (
            "    except KeyError as exc:\n"
            '        raise ActionFormatError(f"decomposition names unknown point {exc.args[0]}")\n'
        ),
        "tests": (f"{ACTIONS}test_witness_names_the_least_unknown_point_under_any_hash_seed",),
        "origin": "Validate once in the actions layer",
    },
)
