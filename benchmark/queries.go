package main

// The 31 TPC-DS-derived queries of the paper's §7 / Figure 7, copied from
// internal/bench so that their text is frozen under the benchmark's paths:
// a later change to internal/bench cannot alter what tpcds_warm measures.
// q25 and q35 cut a sort on a non-unique key with LIMIT, so which of the tied
// rows they return varies from run to run at hive.parallelism=2; their
// digests cover the row count only.
var tpcdsQueries = []Statement{
	{Name: "q3", SQL: `SELECT d_year, i_brand, SUM(ss_sales_price) AS sum_agg
		FROM store_sales, date_dim, item
		WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND i_category = 'Books'
		GROUP BY d_year, i_brand ORDER BY d_year, sum_agg DESC LIMIT 10`},
	{Name: "q7", SQL: `SELECT i_item_id, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS agg2
		FROM store_sales, item, promotion
		WHERE ss_item_sk = i_item_sk AND ss_promo_sk = p_promo_sk
		  AND (p_channel_email = 'N' OR p_channel_tv = 'N')
		GROUP BY i_item_id ORDER BY i_item_id LIMIT 20`},
	{Name: "q12", SQL: `SELECT i_category, SUM(ss_sales_price) AS itemrevenue
		FROM store_sales, item, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND d_year = 2017
		GROUP BY i_category ORDER BY itemrevenue DESC`},
	{Name: "q15", SQL: `SELECT c_customer_id, SUM(ss_sales_price) AS total
		FROM store_sales, customer
		WHERE ss_customer_sk = c_customer_sk AND c_preferred = 'Y'
		GROUP BY c_customer_id HAVING SUM(ss_sales_price) > 50 ORDER BY total DESC LIMIT 25`},
	{Name: "q19", SQL: `SELECT i_brand, s_state, SUM(ss_sales_price) AS rev
		FROM store_sales, item, store
		WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk AND i_category = 'Electronics'
		GROUP BY i_brand, s_state ORDER BY rev DESC LIMIT 10`},
	{Name: "q25", RowsOnly: true, SQL: `SELECT i_item_id, SUM(sr_return_quantity) AS returns_
		FROM store_returns, item
		WHERE sr_item_sk = i_item_sk
		GROUP BY i_item_id ORDER BY returns_ DESC LIMIT 15`},
	{Name: "q26", SQL: `SELECT i_item_id, AVG(ss_quantity) AS agg1
		FROM store_sales, item, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND d_moy = 1
		GROUP BY i_item_id ORDER BY i_item_id LIMIT 20`},
	{Name: "q28", SQL: `SELECT COUNT(DISTINCT ss_customer_sk) AS cnt, AVG(ss_list_price) AS avg_p
		FROM store_sales WHERE ss_quantity BETWEEN 1 AND 5`},
	{Name: "q42", SQL: `SELECT d_year, i_category, SUM(ss_sales_price) AS s
		FROM store_sales, date_dim, item
		WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND d_moy = 2
		GROUP BY d_year, i_category ORDER BY s DESC LIMIT 10`},
	{Name: "q43", SQL: `SELECT s_store_name, SUM(ss_sales_price) AS rev
		FROM store_sales, store
		WHERE ss_store_sk = s_store_sk
		GROUP BY s_store_name ORDER BY rev DESC`},
	{Name: "q52", SQL: `SELECT d_year, i_brand, SUM(ss_sales_price) AS ext_price
		FROM store_sales, date_dim, item
		WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk AND d_moy = 11
		GROUP BY d_year, i_brand ORDER BY d_year, ext_price DESC LIMIT 10`},
	{Name: "q55", SQL: `SELECT i_brand, SUM(ss_sales_price) AS ext_price
		FROM store_sales, item, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk AND d_moy = 12
		GROUP BY i_brand ORDER BY ext_price DESC LIMIT 10`},
	{Name: "q61", SQL: `SELECT promotions.cnt, total.cnt
		FROM (SELECT COUNT(*) AS cnt FROM store_sales, promotion
		      WHERE ss_promo_sk = p_promo_sk AND p_channel_email = 'Y') promotions,
		     (SELECT COUNT(*) AS cnt FROM store_sales) total`},
	{Name: "q65", SQL: `SELECT s_store_name, i_item_id, sales.total
		FROM store, item,
		  (SELECT ss_store_sk AS sk, ss_item_sk AS ik, SUM(ss_sales_price) AS total
		   FROM store_sales GROUP BY ss_store_sk, ss_item_sk) sales
		WHERE s_store_sk = sales.sk AND i_item_sk = sales.ik
		ORDER BY total DESC LIMIT 10`},
	{Name: "q68", SQL: `SELECT c_customer_id, SUM(ss_sales_price) AS amt
		FROM store_sales, customer, date_dim
		WHERE ss_customer_sk = c_customer_sk AND ss_sold_date_sk = d_date_sk
		  AND d_dom BETWEEN 1 AND 3
		GROUP BY c_customer_id ORDER BY amt DESC LIMIT 20`},
	{Name: "q8", SQL: `SELECT s_store_name, SUM(ss_sales_price) AS s
		FROM store_sales, store
		WHERE ss_store_sk = s_store_sk AND s_state IN ('CA','NY')
		GROUP BY s_store_name ORDER BY SUM(ss_quantity)`},
	{Name: "q10", SQL: `SELECT c_customer_id FROM customer
		WHERE EXISTS (SELECT 1 FROM store_sales WHERE ss_customer_sk = c_customer_sk)
		  AND c_birth_year > 1980 ORDER BY c_customer_id LIMIT 20`},
	{Name: "q14", SQL: `SELECT i_item_sk FROM store_sales JOIN item ON ss_item_sk = i_item_sk WHERE i_category = 'Music'
		INTERSECT
		SELECT i_item_sk FROM store_returns JOIN item ON sr_item_sk = i_item_sk`},
	{Name: "q16", SQL: `SELECT COUNT(DISTINCT ss_ticket_number) AS cnt
		FROM store_sales
		WHERE ss_item_sk NOT IN (SELECT i_item_sk FROM item WHERE i_category = 'Shoes')`},
	{Name: "q23", SQL: `SELECT i_item_sk FROM store_sales JOIN item ON ss_item_sk = i_item_sk
		EXCEPT
		SELECT sr_item_sk FROM store_returns`},
	{Name: "q32", SQL: `SELECT AVG(ss_sales_price) FROM store_sales, item
		WHERE ss_item_sk = i_item_sk AND
		ss_sales_price > (SELECT AVG(i_current_price) FROM item)`},
	{Name: "q35", RowsOnly: true, SQL: `SELECT c_customer_id FROM customer
		WHERE c_customer_sk IN (SELECT ss_customer_sk FROM store_sales, date_dim
			WHERE ss_sold_date_sk = d_date_sk AND d_year = 2017)
		ORDER BY c_birth_year LIMIT 20`},
	{Name: "q36", SQL: `SELECT i_category, i_brand, SUM(ss_sales_price) AS s,
		GROUPING(i_category) AS gc
		FROM store_sales, item WHERE ss_item_sk = i_item_sk
		GROUP BY ROLLUP(i_category, i_brand)
		ORDER BY gc, s DESC LIMIT 25`},
	{Name: "q44", SQL: `SELECT i_brand, rk FROM (
		SELECT i_brand, rank() OVER (ORDER BY SUM(ss_sales_price) DESC) AS rk
		FROM store_sales, item WHERE ss_item_sk = i_item_sk GROUP BY i_brand) ranked
		WHERE rk <= 5 ORDER BY rk`},
	{Name: "q51", SQL: `SELECT d_date, SUM(ss_sales_price) OVER (PARTITION BY d_moy ORDER BY d_dom) AS run
		FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_year = 2017
		ORDER BY d_date LIMIT 20`},
	{Name: "q54", SQL: `SELECT COUNT(*) FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk
		  AND d_date BETWEEN CAST('2017-01-01' AS date) AND CAST('2017-01-01' AS date) + INTERVAL 60 DAYS`},
	{Name: "q58", SQL: `SELECT i_item_id, SUM(ss_sales_price) AS total
		FROM store_sales, item, date_dim
		WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk
		  AND d_date BETWEEN CAST('2017-02-01' AS date) AND CAST('2017-02-01' AS date) + INTERVAL 30 DAYS
		GROUP BY i_item_id ORDER BY total DESC LIMIT 15`},
	{Name: "q69", SQL: `SELECT c_customer_id FROM customer
		WHERE NOT EXISTS (SELECT 1 FROM store_returns WHERE sr_customer_sk = c_customer_sk)
		  AND c_preferred = 'Y' ORDER BY c_customer_id LIMIT 20`},
	{Name: "q81", SQL: `SELECT c_customer_id FROM customer, store_returns
		WHERE c_customer_sk = sr_customer_sk AND sr_return_amt >
		  (SELECT AVG(sr_return_amt) FROM store_returns)
		ORDER BY c_customer_id LIMIT 20`},
	{Name: "q88", SQL: `SELECT a.cnt, b.cnt, c.cnt, d.cnt FROM
		(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 1 AND 3) a,
		(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 4 AND 6) b,
		(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 7 AND 8) c,
		(SELECT COUNT(*) AS cnt FROM store_sales, item WHERE ss_item_sk = i_item_sk AND ss_quantity BETWEEN 9 AND 10) d`},
	{Name: "q97", SQL: `SELECT COUNT(*) FROM
		(SELECT ss_customer_sk AS sk FROM store_sales
		 INTERSECT SELECT sr_customer_sk AS sk FROM store_returns) both_channels`},
}
