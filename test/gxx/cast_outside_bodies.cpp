// g++: 59
// Casts in a global initializer and in a default argument convert too.
int g = (int)2.7 * 10;
double h = double(7) / 2 * 10;
int twice(int x = (int)2.7) { return x * 2; }
int main() { return g + (int)h + twice(); }
