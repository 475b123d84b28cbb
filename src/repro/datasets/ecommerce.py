"""E-commerce dataset: customers, products, orders, reviews.

Generative process (all latent, never stored in the database):

* every product belongs to one of ``num_categories`` categories and
  has a latent quality ~ N(0, 1); price is category-dependent;
* every customer has a base order rate (lognormal), a category
  preference (Dirichlet), and an *engagement state* that starts
  engaged and lapses with a per-customer daily hazard; lapsed
  customers place almost no further orders;
* order products are drawn ∝ category preference × within-category
  popularity (Zipf);
* a fraction of orders produce reviews whose rating tracks the
  product's latent quality.

What this plants:

* **churn** ("will the customer order in the next 30 days") is
  predictable from recency/frequency of past orders — the engagement
  state is hidden, but its footprint is the order history (1 hop);
* **spend** (90-day SUM of amounts) adds the price level of the
  preferred category (2 hops: customer → orders → products);
* **next-product** (LIST) is predictable from category preference
  revealed by past purchases plus global popularity.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.datasets.base import assemble, choice_cdfs, python_round
from repro.relational import ColumnSpec, Database, DType, ForeignKey, TableSchema

__all__ = ["make_ecommerce"]

_DAY = 86400
_REGIONS = ["na", "eu", "apac", "latam"]


def make_ecommerce(
    num_customers: int = 300,
    num_products: int = 120,
    num_categories: int = 6,
    span_days: int = 360,
    seed: int = 0,
) -> Database:
    """Build the e-commerce database.

    Parameters scale the dataset; defaults run the full pipeline in
    seconds.  The time span starts at epoch 0.
    """
    rng = np.random.default_rng(seed)
    span = span_days * _DAY

    # ---- products -----------------------------------------------------
    product_category = rng.integers(0, num_categories, size=num_products)
    category_price = np.exp(rng.normal(2.5, 0.6, size=num_categories))
    product_price = category_price[product_category] * np.exp(rng.normal(0, 0.3, num_products))
    product_quality = rng.normal(0, 1, num_products)
    # Within-category popularity: Zipf-like weights.
    popularity = 1.0 / (1.0 + rng.permutation(num_products).astype(np.float64))

    # ---- customers ----------------------------------------------------
    signup = rng.integers(0, span // 2, size=num_customers)
    base_rate = np.exp(rng.normal(np.log(0.08), 0.7, size=num_customers))  # orders/day
    lapse_hazard = np.exp(rng.normal(np.log(0.006), 0.8, size=num_customers))
    preference = rng.dirichlet(np.full(num_categories, 0.5), size=num_customers)
    region = rng.choice(_REGIONS, size=num_customers)
    age = np.clip(rng.normal(40, 12, num_customers), 18, 90)

    # Lapse time: exponential with the customer's hazard, after signup.
    lapse_after = rng.exponential(1.0 / lapse_hazard) * _DAY
    lapse_time = signup + lapse_after.astype(np.int64)

    category_products = [np.flatnonzero(product_category == c) for c in range(num_categories)]
    category_pop = [popularity[idx] / popularity[idx].sum() for idx in category_products]
    pools = [pool.tolist() for pool in category_products]
    preference_cdf = choice_cdfs(preference)
    pool_cdf = choice_cdfs(category_pop)
    gap = (1.0 / (base_rate / _DAY)).tolist()  # mean seconds between orders

    # One pass in the generator's draw order; a categorical draw is
    # ``bisect_right(cdf, rng.random())``, the draw ``rng.choice`` makes.
    # Derived columns come from the raw draws afterwards, as arrays.
    exponential, integers, normal, random = rng.exponential, rng.integers, rng.normal, rng.random
    customers, products, quantities, order_noise, order_ts = [], [], [], [], []
    reviewed, review_noise, review_delay = [], [], []
    for customer in range(num_customers):
        t = float(signup[customer])
        active_until = min(float(lapse_time[customer]), float(span))
        cdf = preference_cdf[customer]
        while True:
            t += exponential(gap[customer])
            if t >= active_until:
                break
            category = bisect_right(cdf, random())
            pool = pools[category]
            if not pool:
                continue
            customers.append(customer)
            products.append(pool[bisect_right(pool_cdf[category], random())])
            quantities.append(integers(1, 4))
            order_noise.append(normal(0, 0.05))
            order_ts.append(int(t))
            if random() < 0.3:
                reviewed.append(len(order_ts) - 1)
                review_noise.append(normal(0, 0.7))
                review_delay.append(integers(_DAY, 7 * _DAY))

    customers = np.array(customers, dtype=np.int64)
    products = np.array(products, dtype=np.int64)
    quantities = np.array(quantities, dtype=np.int64)
    order_ts = np.array(order_ts, dtype=np.int64)
    reviewed = np.array(reviewed, dtype=np.int64)
    amount = product_price[products] * quantities * np.exp(np.array(order_noise))
    rating = np.clip(3.0 + product_quality[products[reviewed]] + np.array(review_noise), 1, 5)

    return assemble("ecommerce", [
        (
            TableSchema(
                "customers",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("region", DType.STRING),
                    ColumnSpec("age", DType.FLOAT64),
                    ColumnSpec("signup_ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                time_column="signup_ts",
            ),
            {
                "id": np.arange(num_customers),
                "region": region.astype(object),
                "age": np.round(age, 1),
                "signup_ts": signup,
            },
        ),
        (
            TableSchema(
                "products",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("category", DType.STRING),
                    ColumnSpec("price", DType.FLOAT64),
                ],
                primary_key="id",
            ),
            {
                "id": np.arange(num_products),
                "category": [f"cat{c}" for c in product_category.tolist()],
                "price": np.round(product_price, 2),
            },
        ),
        (
            TableSchema(
                "orders",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("customer_id", DType.INT64),
                    ColumnSpec("product_id", DType.INT64),
                    ColumnSpec("quantity", DType.INT64),
                    ColumnSpec("amount", DType.FLOAT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("customer_id", "customers", "id"),
                    ForeignKey("product_id", "products", "id"),
                ],
                time_column="ts",
            ),
            {
                "id": np.arange(len(order_ts)),
                "customer_id": customers,
                "product_id": products,
                "quantity": quantities,
                "amount": python_round(amount, 2),
                "ts": order_ts,
            },
        ),
        (
            TableSchema(
                "reviews",
                [
                    ColumnSpec("id", DType.INT64),
                    ColumnSpec("customer_id", DType.INT64),
                    ColumnSpec("product_id", DType.INT64),
                    ColumnSpec("rating", DType.FLOAT64),
                    ColumnSpec("ts", DType.TIMESTAMP),
                ],
                primary_key="id",
                foreign_keys=[
                    ForeignKey("customer_id", "customers", "id"),
                    ForeignKey("product_id", "products", "id"),
                ],
                time_column="ts",
            ),
            {
                "id": np.arange(len(reviewed)),
                "customer_id": customers[reviewed],
                "product_id": products[reviewed],
                "rating": python_round(rating, 1),
                "ts": order_ts[reviewed] + np.array(review_delay, dtype=np.int64),
            },
        ),
    ])
