"""Reference covers and solutions of the structured generator families."""

from wtap.baseline import UpPath, uplink_from_link
from wtap.generators import fig2_link_groups
from wtap.model import Instance


def fig2_reference_cover(instance: Instance) -> list[UpPath]:
    """The disjoint up-link cover made of the vertical and pendant links.

    Covers every edge, has weight d*(2M+2), and is a cheapest such cover
    when d is even.
    """
    groups = fig2_link_groups(instance)
    return [uplink_from_link(instance, lid)
            for lid in groups["vertical"] + groups["pendant"]]


def fig3_solution_ids(instance: Instance) -> list[int]:
    """The solution links l_i = {leaf_i, p_i} of gen_fig3 output."""
    m = (instance.n - 4) // 3
    return list(range(m + 1))


def fig3_uplinks(instance: Instance) -> list[UpPath]:
    """The up-links u_i = {s_{i-1}, p_i} of gen_fig3 output, as up-paths."""
    m = (instance.n - 4) // 3
    return [uplink_from_link(instance, m + i) for i in range(1, m + 1)]
