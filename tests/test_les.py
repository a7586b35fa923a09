from les import les_bookkeeping
from oracle import all_class_coords, conflation


def _all_conflations(ctx):
    for c in range(ctx.n_objects):
        for a in range(ctx.n_objects):
            for coords in all_class_coords(ctx, c, a, include_zero=True):
                yield conflation(ctx, c, a, coords)


def test_exact_context_sequences(exact_contexts):
    for name in ("a2", "dual_numbers"):
        ctx = exact_contexts[name]
        for conf in _all_conflations(ctx):
            for x in range(ctx.n_objects):
                ok, detail = les_bookkeeping(ctx, conf, x, depth=4)
                assert ok, (name, detail)


def test_stable_context_sequences(stable_contexts):
    for name in ("dual_numbers", "nak22"):
        ctx = stable_contexts[name]
        for conf in _all_conflations(ctx):
            for x in range(ctx.n_objects):
                ok, detail = les_bookkeeping(ctx, conf, x, depth=4)
                assert ok, (name, detail)
