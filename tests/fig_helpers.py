"""Reference covers and solutions of the structured generator families."""

from wtap.baseline import UpPath
from wtap.model import Instance, apex


def uplink_from_link(instance: Instance, link_id: int) -> UpPath:
    """View an up-link of the instance as a vertical path record."""
    lk = instance.link(link_id)
    apx = apex(instance, lk)
    if apx not in (lk.u, lk.v):
        raise ValueError(f"link {link_id} is not an up-link")
    top, bottom = (lk.u, lk.v) if apx == lk.u else (lk.v, lk.u)
    return UpPath(top=top, bottom=bottom, weight=lk.weight, link_id=link_id)


def fig2_link_groups(instance: Instance) -> dict[str, list[int]]:
    """Link ids of gen_fig2 output by role: long / vertical / pendant / leafpair."""
    d = (instance.n - 1) // 3
    return {
        "long": [0],
        "vertical": list(range(1, d + 1)),
        "pendant": list(range(d + 1, 2 * d + 1)),
        "leafpair": list(range(2 * d + 1, 3 * d + 1)),
    }


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
