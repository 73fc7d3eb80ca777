// Package wordpress models the WordPress framework API surface that
// phpSAFE ships out-of-the-box knowledge of (DSN 2015, §III.A, §III.E).
//
// The paper's key observation is that plugins interact with the CMS
// through framework objects and functions — "$wpdb->get_results" retrieves
// likely-untrusted database rows, "esc_html" sanitizes for HTML output —
// and a tool unaware of them both misses vulnerabilities (unknown sources)
// and raises false alarms (unknown sanitizers). That knowledge lives in
// the builtin "wordpress" rule pack (internal/rulepack/builtin). This
// package holds StubSource: a PHP rendering of the modeled API, used by
// the corpus generator so generated plugins can include a framework file
// the way real plugins include wp-load.php.
package wordpress

import "strings"

// StubSource returns PHP source text declaring the modeled WordPress API:
// the wpdb class with its query/read methods, the escaping and
// sanitization functions, and the hook-registration functions plugins
// call. The corpus generator writes this as wp-stubs.php so generated
// plugins resemble real ones (and so include-following engines have a
// file to resolve).
func StubSource() string {
	var sb strings.Builder
	sb.WriteString(`<?php
/**
 * WordPress API stubs — a condensed model of the framework surface used
 * by the generated corpus plugins. Real plugins run inside WordPress and
 * include wp-load.php; corpus plugins include this file instead.
 */

class wpdb {
	public $prefix = 'wp_';
	public $insert_id = 0;
	function query($sql) { return 0; }
	function get_results($sql = null, $output = OBJECT) { return array(); }
	function get_row($sql = null, $output = OBJECT, $y = 0) { return null; }
	function get_var($sql = null, $x = 0, $y = 0) { return null; }
	function get_col($sql = null, $x = 0) { return array(); }
	function prepare($sql, $args = null) { return ''; }
	function escape($data) { return $data; }
	function insert($table, $data) { return 1; }
	function update($table, $data, $where) { return 1; }
}

$wpdb = new wpdb();

function add_action($hook, $callback, $priority = 10, $args = 1) { return true; }
function add_filter($hook, $callback, $priority = 10, $args = 1) { return true; }
function add_shortcode($tag, $callback) { return true; }
function register_activation_hook($file, $callback) { return true; }
function register_deactivation_hook($file, $callback) { return true; }
function add_options_page($pt, $mt, $cap, $slug, $cb) { return true; }
function add_menu_page($pt, $mt, $cap, $slug, $cb) { return true; }
function wp_enqueue_script($handle, $src = '') { return true; }
function wp_enqueue_style($handle, $src = '') { return true; }
function plugin_dir_path($file) { return dirname($file) . '/'; }
function plugin_dir_url($file) { return ''; }
function wp_die($message = '') { die($message); }

function get_option($name, $default = false) { return $default; }
function update_option($name, $value) { return true; }
function delete_option($name) { return true; }
function get_post_meta($id, $key = '', $single = false) { return ''; }
function update_post_meta($id, $key, $value) { return true; }
function get_user_meta($id, $key = '', $single = false) { return ''; }
function get_query_var($name, $default = '') { return $default; }
function get_search_query() { return ''; }

function esc_html($text) { return htmlspecialchars($text); }
function esc_attr($text) { return htmlspecialchars($text); }
function esc_url($url) { return $url; }
function esc_js($text) { return $text; }
function esc_textarea($text) { return htmlspecialchars($text); }
function esc_sql($sql) { return addslashes($sql); }
function like_escape($text) { return addslashes($text); }
function sanitize_text_field($str) { return trim(strip_tags($str)); }
function sanitize_email($email) { return $email; }
function sanitize_key($key) { return $key; }
function sanitize_title($title) { return $title; }
function absint($n) { return abs(intval($n)); }
function wp_kses($string, $allowed) { return $string; }
function wp_kses_post($string) { return $string; }
function wp_unslash($value) { return stripslashes($value); }
function wp_specialchars_decode($string) { return htmlspecialchars_decode($string); }

function __($text, $domain = 'default') { return $text; }
function _e($text, $domain = 'default') { echo $text; }
function current_user_can($cap) { return false; }
function is_admin() { return false; }
function wp_verify_nonce($nonce, $action = -1) { return false; }
function wp_create_nonce($action = -1) { return ''; }
function check_admin_referer($action = -1) { return true; }
`)
	return sb.String()
}

// StubPath is the corpus-relative path the stub file is written to.
const StubPath = "wp-stubs.php"
