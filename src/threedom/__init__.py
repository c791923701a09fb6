"""Domination of closed oriented 3-manifolds by products and circle bundles.

Decide, from a symbolic prime decomposition, whether a 3-manifold is
dominated by a product surface x S^1, by a non-trivial circle bundle, or by
any circle bundle, and whether its fundamental group is presentable by a
product.  YES verdicts carry machine-checkable covering or branched-covering
certificates.
"""
