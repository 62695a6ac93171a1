#!/usr/bin/env python3
"""Exact-cover search for perfect codes: find, refute, enumerate.

Ends by probing the small generalized graphs where existence is not
settled by any construction here; those outcomes are printed as data,
not asserted.
"""

import json

from cubecodes import (
    FIBONACCI,
    HYPERCUBE,
    LUCAS,
    VertexSet,
    build_graph,
    count_perfect_codes_dfs,
    find_perfect_code,
    gen_lucas,
    search_constrained,
)


def main():
    print("== Lucas cubes ==")
    for n in range(0, 9):
        g = build_graph(LUCAS, n)
        mode = "first" if n <= 3 else "prove_none"
        out = find_perfect_code(g, mode)
        witness = [str(w) for w in out.witness.words()] if out.witness else None
        print(f"  n={n}: {out.status}" + (f", witness {witness}" if witness else ""))

    print()
    print("== Fibonacci cubes behave the same way ==")
    for n in (3, 4, 10):
        out = find_perfect_code(build_graph(FIBONACCI, n), "first" if n <= 3 else "prove_none")
        print(f"  n={n}: {out.status}")

    print()
    print("== enumerating all perfect codes of the 7-cube ==")
    q7 = build_graph(HYPERCUBE, 7)
    out = find_perfect_code(q7, "enumerate")
    print(f"  engine count: {out.count} ({out.nodes} nodes, {out.millis} ms)")
    print(f"  independent low-bit DFS oracle: {count_perfect_codes_dfs(q7)}")
    print("  outcome record:", json.dumps(out.to_json_dict()))

    print()
    print("== constrained search: codewords without cyclic runs ==")
    for s in (2, 4, 6, 7):
        # the allowed codewords are the vertices that are members of lucas1s:s
        codewords = VertexSet.from_family(q7, gen_lucas(s))
        out = search_constrained(q7, codewords, "first")
        print(f"  avoid cyclic 1^{s} ({len(codewords)} allowed codewords): {out.status}")

    print()
    print("== open territory: short forbidden runs in small graphs ==")
    for n, s in ((7, 3), (7, 4), (8, 3)):
        g = build_graph(gen_lucas(s), n)
        out = find_perfect_code(g, "first")
        print(f"  cyclic 1^{s} forbidden, n={n} ({len(g)} vertices): {out.status}")


if __name__ == "__main__":
    main()
