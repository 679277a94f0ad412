"""The public API surface: everything in ``repro.__all__`` importable and
documented."""

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_submodule_exports_resolve(self):
        """``repro.streaming`` and ``repro.io`` export what they define; the
        dyadic-tree helpers went with the tree, and ``dyadic_cover`` stays
        for the repository benchmark."""
        import repro.io
        import repro.streaming

        for module in (repro.io, repro.streaming):
            for name in module.__all__:
                assert hasattr(module, name), name
        gone = {"merge_results", "merge_path", "node_span", "cover_bound"}
        assert not gone & set(repro.streaming.__all__)
        assert "stream_node_key" not in repro.io.__all__
        assert repro.dyadic_cover is repro.streaming.dyadic_cover

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_public_callables_are_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not isinstance(obj, type(repro.BRAZIL)):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert undocumented == []

    def test_quickstart_docstring_flow(self):
        """The module docstring's quick-start actually runs."""
        from repro import (
            BRAZIL,
            PriveletPlusMechanism,
            RangeSumOracle,
            generate_census_table,
            generate_workload,
        )

        table = generate_census_table(BRAZIL.scaled(0.05), 2_000, seed=0)
        result = PriveletPlusMechanism(sa_names=("Age", "Gender")).publish(
            table, epsilon=1.0, seed=1
        )
        queries = generate_workload(table.schema, 20, seed=2)
        noisy = RangeSumOracle(result.matrix).answer_all(queries)
        assert noisy.shape == (20,)

    def test_error_hierarchy(self):
        assert issubclass(repro.SchemaError, repro.ReproError)
        assert issubclass(repro.HierarchyError, repro.SchemaError)
        assert issubclass(repro.TransformError, repro.ReproError)
        assert issubclass(repro.QueryError, repro.ReproError)
        assert issubclass(repro.PrivacyError, repro.ReproError)
